"""Independent oracles used to freeze expected values.

Deliberately share no code with the library: ranks use dense row-echelon
Gaussian elimination (the library uses sparse column reduction), periodic
words and cubical cells come from brute force over all candidates (the
library backtracks), and geometric constraints are re-checked with Fraction
arithmetic straight from the definitions.
"""

from fractions import Fraction
from itertools import product


def dense_fp_rank(rows, p):
    """Row-echelon rank of a dense integer matrix over F_p."""
    m = [[v % p for v in row] for row in rows]
    rank = 0
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivot_row = 0
    for col in range(n_cols):
        sel = None
        for r in range(pivot_row, n_rows):
            if m[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        m[pivot_row], m[sel] = m[sel], m[pivot_row]
        inv = pow(m[pivot_row][col], p - 2, p)
        m[pivot_row] = [(v * inv) % p for v in m[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == n_rows:
            break
    return rank


def dense_boundary_matrix(lower, upper):
    """Rows indexed by `lower` simplices, columns by `upper` (sorted tuples)."""
    index = {s: i for i, s in enumerate(lower)}
    rows = [[0] * len(upper) for _ in lower]
    for j, s in enumerate(upper):
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            rows[index[face]][j] = 1 if i % 2 == 0 else -1
    return rows


def betti_by_elimination(levels, p):
    """Unreduced Betti numbers from explicit simplex lists per dimension."""
    ranks = [0]
    for k in range(1, len(levels)):
        rows = dense_boundary_matrix(levels[k - 1], levels[k])
        ranks.append(dense_fp_rank(rows, p))
    ranks.append(0)
    return [len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(len(levels))]


def brute_force_periodic(alphabet_size, window, forbidden, n):
    """All cyclic words of length n avoiding the forbidden offset pairs."""
    words = []
    for word in product(range(1, alphabet_size + 1), repeat=n):
        if all((word[i], word[(i + window) % n]) not in forbidden for i in range(n)):
            words.append(word)
    return words


def brute_force_cyclic(alphabet, n, offsets, forbidden):
    """Every length-n word over alphabet (in product order) none of whose
    windows, the tuples (word[(i + o) % n] for o in offsets), one per start
    i, is in the set `forbidden`."""
    return [word for word in product(alphabet, repeat=n)
            if all(tuple(word[(i + o) % n] for o in offsets) not in forbidden
                   for i in range(n))]


def grid_intervals(G, circle_valued):
    """Axis intervals (lo, length) of the grid: points, then unit steps."""
    if circle_valued:
        return [(lo, ln) for lo in range(2 * G) for ln in (0, 1)]
    return [(lo, 0) for lo in range(G + 1)] + [(lo, 1) for lo in range(G)]


def brute_force_cells(p, N, G, circle_valued, cell_ok):
    """Every p-tuple of N-axis boxes on the grid that passes cell_ok,
    found by testing every candidate."""
    boxes = list(product(grid_intervals(G, circle_valued), repeat=N))
    return [cell for cell in product(boxes, repeat=p) if cell_ok(cell)]


def _interval_gap(a, b, G):
    """Distance between [lo, lo + ln] / G intervals, in Fractions."""
    (alo, aln), (blo, bln) = a, b
    lo_a, hi_a = Fraction(alo, G), Fraction(alo + aln, G)
    lo_b, hi_b = Fraction(blo, G), Fraction(blo + bln, G)
    return max(Fraction(0), lo_b - hi_a, lo_a - hi_b)


def xm_cell_ok(cell, G, delta, offset):
    """Boxes at cyclic offset `offset` are >= delta apart in Euclidean
    distance at every pair of points, i.e. at their nearest points."""
    p = len(cell)
    for n in range(p):
        a, b = cell[n], cell[(n + offset) % p]
        if sum(_interval_gap(x, y, G) ** 2 for x, y in zip(a, b)) < delta * delta:
            return False
    return True


def _arc_gap(a, b, G):
    """Least circle distance between points of two arcs [lo, lo + ln] / G of
    the circle of circumference 2: 0 if they meet, else the least distance
    between endpoints."""
    ends_a = [Fraction(a[0], G), Fraction(a[0] + a[1], G)]
    ends_b = [Fraction(b[0], G), Fraction(b[0] + b[1], G)]

    def inside(x, arc):
        return (x - Fraction(arc[0], G)) % 2 <= Fraction(arc[1], G)

    if any(inside(x, b) for x in ends_a) or any(inside(x, a) for x in ends_b):
        return Fraction(0)
    return min(circle_distance(x, y) for x in ends_a for y in ends_b)


def circle_cell_ok(cell, G, kind):
    """The consecutive-pair rule on whole cells: for Z the larger of the two
    consecutive distances is >= 1/2 at every point; for Y it is identically
    1, which needs two points at distance 1 (an arc of positive length moves
    the distance)."""
    p = len(cell)
    arcs = [box[0] for box in cell]
    for n in range(p):
        pairs = ((arcs[n], arcs[(n + 1) % p]), (arcs[(n + 1) % p], arcs[(n + 2) % p]))
        if kind == "Z":
            if all(_arc_gap(x, y, G) < Fraction(1, 2) for x, y in pairs):
                return False
        elif not any(x[1] == 0 and y[1] == 0 and _arc_gap(x, y, G) == 1 for x, y in pairs):
            return False
    return True


def cube_tuple_ok(values, delta, offset):
    """values: p-tuple of N-tuples of Fractions in [0,1]."""
    p = len(values)
    for n in range(p):
        a, b = values[n], values[(n + offset) % p]
        if sum((x - y) ** 2 for x, y in zip(a, b)) < delta * delta:
            return False
    return True


def circle_distance(x, y):
    """The circle of circumference 2: min_k |x - y - 2k| for Fractions."""
    d = abs(x - y) % 2
    return min(d, 2 - d)


def circle_pair_ok(values, kind):
    """values: p-tuple of Fractions in [0,2); the consecutive-pair rule."""
    p = len(values)
    half = Fraction(1, 2)
    for n in range(p):
        d1 = circle_distance(values[n], values[(n + 1) % p])
        d2 = circle_distance(values[(n + 1) % p], values[(n + 2) % p])
        if kind == "Z":
            if max(d1, d2) < half:
                return False
        else:
            if max(d1, d2) != 1:
                return False
    return True


def cells_shift_closed_and_free(cells):
    """True iff every power shift^a, 0 < a < p, of every p-tuple cell is
    another cell of the family, with every power checked explicitly."""
    family = set(cells)
    for cell in family:
        p = len(cell)
        for a in range(1, p):
            image = tuple(cell[(n + a) % p] for n in range(p))
            if image == cell or image not in family:
                return False
    return True


def fixed_by_some_power(perm, p, simplices):
    """True iff some simplex is setwise fixed by T^a for some 0 < a < p,
    with every power composed and checked explicitly."""
    power = list(range(len(perm)))
    for _ in range(1, p):
        power = [perm[v] for v in power]
        if any({power[v] for v in s} == set(s) for s in simplices):
            return True
    return False
