"""Independent oracles used to freeze expected values.

Deliberately share no code with the library: ranks use dense row-echelon
Gaussian elimination (the library uses sparse column reduction), periodic
words and cubical cells come from brute force over all candidates (the
library searches over ANDed bitset domains), the enumerator's node counts
come from place-and-check backtracking (the library charges the same nodes
but never tries a symbol its domain excludes), simplicial closures and
maximal simplices come from all subsets and all pairs (the library walks
facets level by level), barycentric subdivisions list every chain under
strict inclusion (the library closes the full flags of each maximal
simplex), the
triangulation of a cubical complex walks every cell with every corner built
from scratch (the library walks maximal cells, moving one corner per step),
cell and word families are judged valid cell by cell and word by word (the
library checks one member per shift orbit and walks the orbit), offset-m
cells are offset-1 cells with their coordinates relabelled (the library
enumerates each offset on its own), orbits are
listed by following the map with a set of the members seen (the library
indexes the family and marks positions),
equivariant maps come from plain place-and-check backtracking over every
target vertex (the library intersects neighbourhood bitsets), actions and
vertex maps are checked simplex by simplex (the library tests a level's
vertex columns at once), Betti
numbers come from every boundary column (the library clears those that
must reduce to zero), a complex is flag when networkx finds no clique
of its 1-skeleton that is not a simplex (the library counts cliques level
by level and never lists them),
geometric constraints are re-checked with Fraction arithmetic straight
from the definitions, and primes come from trial division (the library runs
the Miller-Rabin test).
"""

from fractions import Fraction
from itertools import combinations, permutations, product, takewhile
from math import isqrt

import networkx as nx


def trial_division_prime(n):
    """True iff n >= 2 has no divisor in 2..isqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


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


def cubical_betti_by_elimination(cells, G, circle_valued, p):
    """Unreduced Betti numbers of a face-closed family of p-tuple cells of
    N-axis boxes: the j-th unit interval of a cell, counted over all its
    slots in order, gives (-1)^j * (upper face - lower face), each face
    built from scratch, with ranks from dense elimination."""
    def dim(cell):
        return sum(ln for box in cell for _, ln in box)

    top = max((dim(c) for c in cells), default=-1)
    levels = [sorted(c for c in cells if dim(c) == k) for k in range(top + 1)]
    ranks = [0]
    for k in range(1, top + 1):
        index = {c: i for i, c in enumerate(levels[k - 1])}
        rows = [[0] * len(levels[k]) for _ in levels[k - 1]]
        for j, cell in enumerate(levels[k]):
            slots = [(n, axis) for n, box in enumerate(cell)
                     for axis, (_, ln) in enumerate(box) if ln == 1]
            for sign, (n, axis) in zip((1, -1) * k, slots):
                lo = cell[n][axis][0]
                hi = (lo + 1) % (2 * G) if circle_valued else lo + 1
                for end, s in ((hi, sign), (lo, -sign)):
                    face = tuple(
                        tuple((end, 0) if (m, a) == (n, axis) else iv
                              for a, iv in enumerate(box))
                        for m, box in enumerate(cell))
                    rows[index[face]][j] += s
        ranks.append(dense_fp_rank(rows, p))
    ranks.append(0)
    return [len(levels[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)]


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


def place_and_check_words(alphabet, n, offsets, forbidden, budget):
    """The enumerator's words, order and node count by plain place-and-check
    backtracking: each position tries every symbol in turn and tests each
    window as soon as its last position is placed.  Entering a position
    costs len(alphabet) nodes and each word found n; returns (words, nodes),
    or raises OverBudget with the node count at the first charge that
    passes `budget`."""
    closing = [[] for _ in range(n)]
    for i in range(n):
        window = [(i + o) % n for o in offsets]
        closing[max(window)].append(window)
    symbols = tuple(alphabet)
    size = len(symbols)
    found = []
    word = [None] * n
    tried = [0] * n  # tried[i]: how many symbols position i has taken so far
    i, nodes = 0, size
    while i >= 0:
        if nodes > budget:
            raise OverBudget(nodes)
        k = tried[i]
        if k == size:
            i -= 1
            continue
        tried[i] = k + 1
        word[i] = symbols[k]
        if any(forbidden(tuple(word[q] for q in window)) for window in closing[i]):
            continue
        if i == n - 1:
            found.append(tuple(word))
            nodes += n
        else:
            i += 1
            tried[i] = 0
            nodes += size
    return found, nodes


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


def cube_faces(cell, G, circle_valued):
    """Codimension-one faces of a p-tuple cell of boxes, each built from
    scratch: every unit interval replaced by its lower and by its upper end
    point (mod 2G on the circle)."""
    faces = []
    for n, box in enumerate(cell):
        for axis, (lo, ln) in enumerate(box):
            if ln == 1:
                for end in (lo, (lo + 1) % (2 * G) if circle_valued else lo + 1):
                    faces.append(tuple(
                        tuple((end, 0) if (m, a) == (n, axis) else iv for a, iv in enumerate(b))
                        for m, b in enumerate(cell)))
    return faces


def face_closure(cells, G, circle_valued):
    """The cells with every face of every face, and so on, sorted."""
    closed, stack = set(), list(cells)
    while stack:
        cell = stack.pop()
        if cell not in closed:
            closed.add(cell)
            stack.extend(cube_faces(cell, G, circle_valued))
    return sorted(closed)


def cell_family_ok(cells, p, N, G, circle_valued, cell_ok):
    """True iff every cell of the family, checked on its own, is a p-tuple
    of N-axis grid boxes, passes cell_ok, has all its faces in the family,
    and has its shift image in the family and different from itself."""
    family = set(cells)
    boxes = set(product(grid_intervals(G, circle_valued), repeat=N))

    def valid(cell):
        image = tuple(cell[(n + 1) % len(cell)] for n in range(len(cell)))
        return (len(cell) == p and all(box in boxes for box in cell) and cell_ok(cell)
                and all(face in family for face in cube_faces(cell, G, circle_valued))
                and image != cell and image in family)
    return all(valid(cell) for cell in family)


def free_word_family_ok(words):
    """True iff the words are distinct, there is one or more, all have one
    prime length, and each word's rotation by one, checked on its own, is
    another word of the family."""
    family = set(words)
    lengths = {len(word) for word in family}
    if not words or len(family) != len(words) or len(lengths) != 1:
        return False
    (p,) = lengths
    return (p > 1 and all(p % q for q in range(2, p))
            and all(word[1:] + word[:1] in family - {word} for word in family))


def _interval_gap(a, b, G):
    """Distance between [lo, lo + ln] / G intervals, in Fractions."""
    (alo, aln), (blo, bln) = a, b
    lo_a, hi_a = Fraction(alo, G), Fraction(alo + aln, G)
    lo_b, hi_b = Fraction(blo, G), Fraction(blo + bln, G)
    return max(Fraction(0), lo_b - hi_a, lo_a - hi_b)


def xm_window_ok(a, b, G, delta):
    """Boxes a and b are >= delta apart in Euclidean distance at every pair
    of points, i.e. at their nearest points."""
    return sum(_interval_gap(x, y, G) ** 2 for x, y in zip(a, b)) >= delta * delta


def xm_cell_ok(cell, G, delta, offset):
    """Boxes at cyclic offset `offset` pass xm_window_ok."""
    p = len(cell)
    return all(xm_window_ok(cell[n], cell[(n + offset) % p], G, delta) for n in range(p))


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


def circle_window_ok(a, b, c, G, kind):
    """The consecutive-pair rule on three consecutive one-axis boxes: for Z
    the larger of the two consecutive distances is >= 1/2 at every point;
    for Y it is identically 1, which needs two points at distance 1 (an arc
    of positive length moves the distance)."""
    pairs = ((a[0], b[0]), (b[0], c[0]))
    if kind == "Z":
        return any(_arc_gap(x, y, G) >= Fraction(1, 2) for x, y in pairs)
    return any(x[1] == 0 and y[1] == 0 and _arc_gap(x, y, G) == 1 for x, y in pairs)


def circle_cell_ok(cell, G, kind):
    """Every three cyclically consecutive boxes pass circle_window_ok."""
    p = len(cell)
    return all(circle_window_ok(cell[n], cell[(n + 1) % p], cell[(n + 2) % p], G, kind)
               for n in range(p))


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


def cycles(items, step):
    """Cycles of the bijection `step` through `items`, each listed from its
    first member in `items` order, in that order."""
    seen, out = set(), []
    for x in items:
        if x not in seen:
            cycle = [x]
            while step(cycle[-1]) != x:
                cycle.append(step(cycle[-1]))
            seen.update(cycle)
            out.append(tuple(cycle))
    return out


def is_flag(cx, size=None):
    """True iff every clique of the 1-skeleton of the simplicial complex
    cx, as `networkx.enumerate_all_cliques` lists them, is a simplex of cx;
    with `size`, every clique of at most `size` vertices.  The cliques come
    in order of size, so the listing stops at the first larger one."""
    simplices = {frozenset(s) for s in cx.simplices()}
    graph = nx.Graph()
    graph.add_nodes_from(s[0] for s in cx.simplices() if len(s) == 1)
    graph.add_edges_from(s for s in cx.simplices() if len(s) == 2)
    cliques = nx.enumerate_all_cliques(graph)
    if size is not None:
        cliques = takewhile(lambda clique: len(clique) <= size, cliques)
    return all(frozenset(clique) in simplices for clique in cliques)


def relabel(cell, l):
    """The p-tuple (x_0, x_l, x_2l, ...) of (x_0, ..., x_{p-1}), indices mod p."""
    p = len(cell)
    return tuple(cell[l * n % p] for n in range(p))


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


def bad_simplices(by_dim, perm):
    """The simplices, in level order, whose image (vertices moved one at a
    time) is no simplex of the family or is the simplex itself: the first
    is the one a refusal names."""
    family = {frozenset(s) for level in by_dim for s in level}
    for level in by_dim:
        for s in level:
            image = frozenset(perm[v] for v in s)
            if image not in family or image == frozenset(s):
                yield s


def action_ok(vertex_count, by_dim, perm):
    """True iff perm has one entry per vertex and moves every simplex onto
    another simplex of the family."""
    return len(perm) == vertex_count and next(bad_simplices(by_dim, perm), None) is None


def vertex_map_problems(source, target, vertex_map):
    """The problems `check_vertex_map` reports, found one vertex and one
    simplex at a time: a prime mismatch; a map of the wrong length (and
    nothing more); entries that are not integers (bools included) in the
    target's vertex range (and nothing more); every source simplex, in
    level order, whose image vertex set is no target simplex; every vertex
    at which the map fails to intertwine the two permutations."""
    problems = []
    if source.action.p != target.action.p:
        problems.append(f"prime mismatch: {source.action.p} vs {target.action.p}")
    n_source, n_target = source.complex.vertex_count, target.complex.vertex_count
    if len(vertex_map) != n_source:
        return problems + [f"vertex_map length {len(vertex_map)} != source vertex count {n_source}"]
    for v, t in enumerate(vertex_map):
        if isinstance(t, bool) or not isinstance(t, int) or not 0 <= t < n_target:
            problems.append(f"vertex {v} mapped outside target range: {t!r}")
    if problems:
        return problems
    targets = {frozenset(s) for level in target.complex.by_dim for s in level}
    for level in source.complex.by_dim:
        for s in level:
            image = {vertex_map[v] for v in s}
            if frozenset(image) not in targets:
                problems.append(f"image {tuple(sorted(image))} of simplex {s} "
                                "is not a target simplex")
    sp, tp = source.action.perm, target.action.perm
    for v in range(n_source):
        moved_then_mapped, mapped_then_moved = vertex_map[sp[v]], tp[vertex_map[v]]
        if moved_then_mapped != mapped_then_moved:
            problems.append(f"equivariance fails at vertex {v}: map(perm({v}))="
                            f"{moved_then_mapped} but perm(map({v}))={mapped_then_moved}")
    return problems


def brute_force_closure(simplices):
    """Every nonempty subset of every simplex (vertex collections), as a set
    of sorted tuples."""
    closure = set()
    for s in simplices:
        vertices = sorted(set(s))
        for r in range(1, len(vertices) + 1):
            closure.update(combinations(vertices, r))
    return closure


def brute_force_maximal(simplices):
    """The simplices of the family that lie in no strictly larger member,
    compared as vertex sets, in (dimension, lexicographic) order."""
    family = [frozenset(s) for s in simplices]
    maximal = [s for s in family if not any(s < t for t in family)]
    return sorted((tuple(sorted(s)) for s in maximal), key=lambda s: (len(s), s))


def brute_force_subdivision(simplices, perm):
    """Barycentric subdivision of the downward-closed family `simplices`
    under the vertex permutation `perm`.  Barycenter i is the i-th simplex
    in (dimension, lexicographic) order; the simplices are all chains under
    strict inclusion, found by extending every chain by every strict
    superset of its last member.  Returns (set of sorted chains, the
    permutation of the barycenters)."""
    order = sorted(map(tuple, simplices), key=lambda s: (len(s), s))
    members = [frozenset(s) for s in order]
    chains = set()
    stack = [(i,) for i in range(len(order))]
    while stack:
        chain = stack.pop()
        chains.add(tuple(sorted(chain)))
        stack.extend(chain + (j,) for j, t in enumerate(members) if members[chain[-1]] < t)
    images = [tuple(sorted(perm[v] for v in s)) for s in order]
    return chains, tuple(map(order.index, images))


def brute_force_triangulation(cells, G, circle_valued):
    """The corner-path triangulation of a face-closed family of p-tuple
    cells: for every cell (not only the maximal ones) and every ordering of
    its unit slots, the path of corners that raises the first r slots of the
    ordering, r = 0..k, each corner built from scratch; closed by all
    subsets.  Vertices are the 0-cells in sorted order.  Returns (set of
    sorted simplices, shift permutation of the vertices)."""
    two_g = 2 * G
    verts = sorted(c for c in cells if all(ln == 0 for box in c for _, ln in box))
    index = {v: i for i, v in enumerate(verts)}

    def corner(cell, raised):
        return tuple(
            tuple(((lo + 1) % two_g if circle_valued else lo + 1, 0)
                  if (n, axis) in raised else (lo, 0)
                  for axis, (lo, _) in enumerate(box))
            for n, box in enumerate(cell))

    paths = []
    for cell in cells:
        slots = [(n, axis) for n, box in enumerate(cell)
                 for axis, (_, ln) in enumerate(box) if ln == 1]
        for order in permutations(slots):
            paths.append([index[corner(cell, set(order[:r]))]
                          for r in range(len(order) + 1)])
    perm = tuple(index[v[1:] + v[:1]] for v in verts)
    return brute_force_closure(paths), perm


class AnyCell:
    """The constraint recorded on a complex built from given codes.  The
    constructor judges no window, so validation turns on the shift and face
    structure alone, and no judge is needed here."""


class OverBudget(Exception):
    """Raised by plain_vertex_map_search once its node count passes the
    budget; `count` is the node count at that moment."""

    def __init__(self, count):
        super().__init__(count)
        self.count = count


def plain_vertex_map_search(source, target, budget):
    """Plain backtracking for an equivariant simplicial vertex map.

    Orbits of the source vertices, each listed from its smallest vertex
    along the action and taken in order of that vertex, are placed one at
    a time: the orbit's i-th vertex goes to T^i t for every target vertex t
    in ascending order.  Each placement is one node; it is kept when every
    source simplex whose vertices are all placed now maps onto a target
    simplex.  Returns (vertex map, nodes) for the first full placement, or
    (None, nodes) after every placement was tried; raises OverBudget when
    the node count passes `budget`."""
    present = sorted(s[0] for s in source.complex.simplices() if len(s) == 1)
    targets = sorted(s[0] for s in target.complex.simplices() if len(s) == 1)
    if present and not targets:
        return None, 0
    def cycle(perm, v):
        walk = [v]
        while perm[walk[-1]] != v:
            walk.append(perm[walk[-1]])
        return walk

    orbits, seen = [], set()
    for v in present:
        if v not in seen:
            orbit = cycle(source.action.perm, v)
            seen.update(orbit)
            orbits.append(orbit)
    position = {v: k for k, orbit in enumerate(orbits) for v in orbit}
    last_placed = [[] for _ in orbits]
    for s in source.complex.simplices():
        last_placed[max(position[v] for v in s)].append(s)
    target_simplices = set(target.complex.simplices())
    vertex_map = [-1] * source.complex.vertex_count
    nodes = 0

    def place(k):
        nonlocal nodes
        if k == len(orbits):
            return True
        for t in targets:
            nodes += 1
            if nodes > budget:
                raise OverBudget(nodes)
            image = t
            for v in orbits[k]:
                vertex_map[v] = image
                image = target.action.perm[image]
            if all(tuple(sorted({vertex_map[v] for v in s})) in target_simplices
                   for s in last_placed[k]):
                if place(k + 1):
                    return True
            for v in orbits[k]:
                vertex_map[v] = -1
        return False

    if not place(0):
        return None, nodes
    return tuple(vertex_map), nodes
