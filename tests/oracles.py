"""Independent oracles used to freeze expected values.

Deliberately share no code with the library: ranks use dense row-echelon
Gaussian elimination (the library uses sparse column reduction), periodic
points come from brute force over all words, and geometric constraints are
re-checked with Fraction arithmetic straight from the definitions.
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


def fixed_by_some_power(perm, p, simplices):
    """True iff some simplex is setwise fixed by T^a for some 0 < a < p,
    with every power composed and checked explicitly."""
    power = list(range(len(perm)))
    for _ in range(1, p):
        power = [perm[v] for v in power]
        if any({power[v] for v in s} == set(s) for s in simplices):
            return True
    return False
