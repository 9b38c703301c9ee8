"""Finite simplicial complexes with free simplicial Z_p-actions.

A complex is the downward closure of the simplices it is given, stored as
its maximal simplices (the compact form of Boissonnat, Karthik & Tavenas,
Algorithmica 2017): sorted integer tuples grouped by dimension, so equality
and hashing are canonical.  A level of the closure is built only when a
caller reads it, from the maximal simplices, and kept: files, content keys,
certificates and the action check read the maximal simplices, the map
search the edges, and only homology, subdivision, `f_vector` and failure
messages every level.  Actions are vertex permutations of prime order p;
freeness is the setwise-fixed-simplex test, which is exact for simplicial
actions of prime-order cyclic groups (a setwise-fixed simplex would fix its
barycenter).  Homology is the driver `fplinalg.betti_numbers` with the
simplex face rule.

Containment is decided without faces: `_holders` intersects, vertex column
by vertex column (column j: vertex j of each simplex), per-vertex sets of
the simplices that hold a vertex, so per-simplex work runs in C.  It finds
the maximal simplices of a given family and the vertex orbits that are
simplices.

Both complex types are frozen dataclasses, their equality, hashing and
read-only fields declared.  Every label of a complex is a vertex, and an
action moves every label: `_cycles` walks a permutation's cycles, which
`ZpAction` holds to length p and `vertex_orbits` lists as vertex orbits.
Every free Z_p-set of the package that is walked orbit by orbit is a vertex
set walked by `vertex_orbits`; periodic words in `subshifts` become
vertices, so their orbits are vertex orbits.  Every iterated join is a left
fold of `join`: `join_power`, or `e_n_zp`, which checks its size first.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial, reduce
from operator import and_, itemgetter, mul

from .errors import SIZE_CAP, ValidationError, whole, within_budget
from .fplinalg import betti_numbers, cut_power, prime

Simplex = tuple[int, ...]

# Sentinel connectivity values: the empty complex, and complexes whose
# reduced homology vanishes everywhere (connectivity is unbounded there).
EMPTY_CONNECTIVITY = -2
INFINITE_CONNECTIVITY = math.inf


def _columns(level) -> list[tuple[int, ...]]:
    """Column j holds vertex j of each simplex, in the level's iteration order."""
    return [tuple(map(itemgetter(j), level)) for j in range(len(next(iter(level), ())))]


def _holders(tops, groups):
    """For each simplex of each group (simplices of one size), the set of the
    indices in tops of the simplices that hold all its vertices: per-vertex
    sets intersected column by column, as `search._flag_up_to` ANDs bitsets.
    A vertex's set grows with its holders only, not with tops."""
    holding = defaultdict(set)
    for i, top in enumerate(tops):
        for v in top:
            holding[v].add(i)
    return itertools.chain.from_iterable(
        reduce(partial(map, and_), [map(holding.__getitem__, col) for col in _columns(group)])
        for group in groups)


def _cycles(perm) -> list[tuple[int, ...]]:
    """The cycles of perm, each from its least member, sorted by that member."""
    seen, cycles = set(), []
    for v in range(len(perm)):
        if v not in seen:
            cycle = [v]
            while perm[cycle[-1]] != v:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            cycles.append(tuple(cycle))
    return cycles


@dataclass(frozen=True, slots=True, repr=False)
class SimplicialComplex:
    """The downward closure, on vertices 0..vertex_count-1, of the simplices
    given in `maximal`, grouped and ordered in any way; each vertex lies in
    one of them.  A simplex is its vertex set.  The complex is its maximal
    simplices: `maximal` then holds them grouped by dimension, entry d the
    maximal d-simplices as sorted tuples in sorted order (empty if none), up
    to the top dimension.  With `vertex_count` that is all that is compared
    and hashed, and `SimplicialComplex(n, cx.maximal)` is cx.  Level d lists
    the d-simplices as sorted tuples in sorted order; it is built when first
    read (`level`) and kept."""

    vertex_count: int
    maximal: tuple[tuple[Simplex, ...], ...]
    _levels: dict[int, tuple[Simplex, ...]] = field(init=False, compare=False)

    def __post_init__(self):
        """Refuse the given simplices (`_validate`), then keep the distinct
        ones that no larger one holds.  With one size every distinct simplex
        is maximal; otherwise a simplex is held by a larger one iff a given
        simplex other than itself holds all its vertices."""
        whole(self.vertex_count, "vertex count")
        try:
            given = list(map(tuple, itertools.chain.from_iterable(self.maximal)))
        except TypeError as exc:
            raise ValidationError(f"simplices must hold integers: {exc}") from exc
        self._validate(given)
        family = sorted(sorted(set(map(tuple, map(sorted, map(set, given))))), key=len)
        groups = [list(group) for _, group in itertools.groupby(family, len)]
        if len(groups) > 1:
            alone = map((1).__eq__, map(len, _holders(family, groups[:-1])))
            family = [*itertools.compress(itertools.chain(*groups[:-1]), alone), *groups[-1]]
        levels = [()] * (len(family[-1]) if family else 0)
        for size, group in itertools.groupby(family, len):
            levels[size - 1] = tuple(group)
        object.__setattr__(self, "maximal", tuple(levels))
        object.__setattr__(self, "_levels", {})

    @classmethod
    def from_simplices(cls, vertex_count: int, simplices) -> "SimplicialComplex":
        """The closure of a flat simplex family."""
        return cls(vertex_count, [simplices])

    def _validate(self, given):
        """Before anything else, refuse an empty simplex, then the first
        simplex holding a vertex that is no int (bools included), then one
        holding a vertex outside 0..vertex_count-1, then a label in no given
        simplex, the least missing from the set of given vertices (so a huge
        vertex_count costs nothing).  Every vertex of the closure is a vertex
        of a given simplex, so only these are read: a bool or float equal to
        an int vertex may hide behind it in a set."""
        if not all(given):
            raise ValidationError("empty vertex tuple is not a simplex")
        n, vertices = self.vertex_count, list(itertools.chain.from_iterable(given))
        # type, not isinstance: bool is a subclass of int
        if set(map(type, vertices)) - {int}:
            bad = next(s for s in given if set(map(type, s)) - {int})
            raise ValidationError(f"simplex {bad} must hold integers")
        if vertices and (min(vertices) < 0 or max(vertices) >= n):
            bad = next(s for s in given if not all(0 <= v < n for v in s))
            raise ValidationError(f"simplex {bad} exceeds vertex range 0..{n - 1}")
        if len(labels := set(vertices)) < n:
            label = next(itertools.filterfalse(labels.__contains__, itertools.count()))
            raise ValidationError(f"label {label} lies in no simplex")

    def level(self, d: int) -> tuple[Simplex, ...]:
        """The d-simplices: the (d+1)-subsets of the maximal simplices of more
        than d vertices, each kept once in first-seen order (so the sort
        merges the sorted runs `combinations` gives), sorted.  Built on the
        first read and kept."""
        if (faces := self._levels.get(d)) is None:
            tops = itertools.chain.from_iterable(self.maximal[d:])
            faces = self._levels[d] = tuple(sorted(dict.fromkeys(itertools.chain.from_iterable(
                map(itertools.combinations, tops, itertools.repeat(d + 1))))))
        return faces

    @property
    def by_dim(self) -> tuple[tuple[Simplex, ...], ...]:
        """Every level, 0 to dim."""
        return tuple(map(self.level, range(self.dim + 1)))

    @property
    def dim(self) -> int:
        return len(self.maximal) - 1

    def is_empty(self) -> bool:
        return not self.maximal

    def simplices(self):
        for level in self.by_dim:
            yield from level

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(len, self.by_dim))

    def maximal_simplices(self) -> list[Simplex]:
        """Simplices that are no proper face of any simplex, in (dimension,
        lexicographic) order."""
        return list(itertools.chain.from_iterable(self.maximal))

    def __repr__(self):
        return f"SimplicialComplex(vertices={self.vertex_count}, f={self.f_vector()})"


@dataclass(frozen=True)
class ZpAction:
    """Vertex permutation whose cycles all have the prime length p."""

    p: int
    perm: tuple[int, ...]

    def __post_init__(self):
        prime(self.p)
        n = len(self.perm)
        if set(map(type, self.perm)) - {int}:
            raise ValidationError("perm must hold integers")
        if sorted(self.perm) != list(range(n)):
            raise ValidationError("perm is not a permutation of 0..n-1")
        for cycle in _cycles(self.perm):
            if len(cycle) != self.p:
                raise ValidationError(f"label {cycle[0]} lies in a cycle of length "
                                      f"{len(cycle)}, not p = {self.p}")

    def apply(self, simplex: Simplex) -> Simplex:
        return tuple(sorted(map(self.perm.__getitem__, simplex)))


@dataclass(frozen=True, slots=True, repr=False)
class FreeZpComplex:
    """A simplicial complex together with a free simplicial Z_p-action."""

    complex: SimplicialComplex
    action: ZpAction

    def __post_init__(self):
        self._validate()

    def _validate(self):
        """T maps the faces of s to faces of T(s), so it is simplicial iff it
        maps the maximal simplices onto themselves.  A setwise-fixed simplex
        is a union of orbits, so T is free iff no vertex orbit (p vertices,
        as `ZpAction` holds) is a simplex, that is iff no maximal simplex
        holds all p vertices of an orbit; p being prime, a simplex fixed by
        a T^a, 0 < a < p, is fixed by T.  Only on failure are the levels
        built, to name the first simplex in level order whose image is
        missing or itself."""
        cx, apply = self.complex, self.action.apply
        if len(self.action.perm) != cx.vertex_count:
            raise ValidationError("permutation length differs from vertex count")
        tops = set(itertools.chain.from_iterable(cx.maximal))
        holding = list(itertools.chain.from_iterable(cx.maximal[self.p - 1:]))
        if all(map(tops.__contains__, map(apply, tops))) and not (
                holding and any(_holders(holding, [self.vertex_orbits()]))):
            return
        simplices = set(cx.simplices())
        bad = next(s for s in cx.simplices() if apply(s) == s or apply(s) not in simplices)
        if apply(bad) != bad:
            raise ValidationError(f"action is not simplicial: image of {bad} missing")
        raise ValidationError(f"action is not free: {bad} is setwise fixed")

    @property
    def p(self) -> int:
        return self.action.p

    @property
    def dim(self) -> int:
        return self.complex.dim

    def is_empty(self) -> bool:
        return self.complex.is_empty()

    def vertex_orbits(self) -> list[tuple[int, ...]]:
        """Orbits of the action on the vertices, each starting at its
        smallest member, sorted by that member."""
        return _cycles(self.action.perm)

    def __repr__(self):
        return f"FreeZpComplex(p={self.p}, vertices={self.complex.vertex_count}, dim={self.dim})"


@dataclass(frozen=True)
class HomologyProfile:
    """Betti numbers over F_p and the induced homological connectivity.

    homological_connectivity is the largest c with vanishing reduced homology
    in all degrees <= c: -2 for the empty complex, math.inf when reduced
    homology vanishes everywhere, otherwise a finite integer.
    """

    p: int
    betti: tuple[int, ...]
    reduced: bool

    def __post_init__(self):
        if any(b < 0 for b in self.betti):
            raise ValidationError("negative betti number")

    @property
    def homological_connectivity(self) -> int | float:
        if not self.betti:
            return EMPTY_CONNECTIVITY
        reduced_betti = self.betti if self.reduced else (self.betti[0] - 1,) + self.betti[1:]
        return next((k - 1 for k, b in enumerate(reduced_betti) if b), INFINITE_CONNECTIVITY)


def homology(cx: SimplicialComplex, p: int, reduced: bool = True) -> HomologyProfile:
    """Betti numbers of cx over F_p; the face of a simplex without its i-th
    vertex has the sign (-1)^i.  The driver's cells are simplex indices in
    the order `simplices` yields, its levels ranges; `combinations` drops
    the last vertex first, so the signs end in +1."""
    def signed_faces(i: int):
        s = flat[i]
        return zip(map(index.__getitem__, itertools.combinations(s, len(s) - 1)), signs[len(s) % 2])
    flat = list(cx.simplices())
    index = dict(zip(itertools.chain(*cx.by_dim[:-1]), itertools.count()))  # top ones are no faces
    starts = list(itertools.accumulate(map(len, cx.by_dim), initial=0))
    signs = ((-1, 1) * len(starts), (1, -1) * len(starts))  # for even, odd sizes
    levels = list(map(range, starts, starts[1:]))
    return HomologyProfile(p, betti_numbers(levels, signed_faces, p, reduced), reduced)


def make_discrete_zp(p: int) -> FreeZpComplex:
    """p isolated vertices cyclically permuted: the 0-dimensional model."""
    cx = SimplicialComplex(prime(p), [[(v,) for v in range(p)]])
    return FreeZpComplex(cx, ZpAction(p, tuple((v + 1) % p for v in range(p))))


def join_size(size: int, copies: int) -> int:
    """(size + 1)^copies - 1, the simplices of a join of `copies` complexes of
    `size` simplices each, or SIZE_CAP if larger: a power of cut products."""
    return cut_power([[size + 1]], copies, SIZE_CAP + 1)[0][0] - 1


def join(x: FreeZpComplex, y: FreeZpComplex) -> FreeZpComplex:
    """Combinatorial join: simplices are disjoint unions of a simplex from
    each side (either side may contribute nothing), acted on simultaneously;
    so the complex is the closure of the unions of two maximal simplices.
    Its (|x| + 1)(|y| + 1) - 1 simplices are checked against the budget first.

    An empty factor is the identity for the join.
    """
    if x.p != y.p:
        raise ValidationError(f"join over mismatched primes {x.p} != {y.p}")
    within_budget(math.prod(sum(z.complex.f_vector()) + 1 for z in (x, y)) - 1, "the join")
    if y.is_empty():
        return x
    if x.is_empty():
        return y
    nx = x.complex.vertex_count
    ys = [tuple(v + nx for v in sy) for sy in y.complex.maximal_simplices()]
    cx = SimplicialComplex.from_simplices(
        nx + y.complex.vertex_count, (sx + sy for sx in x.complex.maximal_simplices() for sy in ys))
    perm = tuple(x.action.perm) + tuple(v + nx for v in y.action.perm)
    return FreeZpComplex(cx, ZpAction(x.p, perm))


def join_power(x: FreeZpComplex, copies: int) -> FreeZpComplex:
    """The join of `copies` copies of x, each new copy joined on the right:
    vertex i*n + v is vertex v of copy i, where x has n vertices.  The
    result's (|x| + 1)^copies - 1 simplices are checked before the first join."""
    whole(copies, "need at least one copy: copies", 1)
    within_budget(join_size(sum(x.complex.f_vector()), copies), f"the join of {copies} copies")
    return reduce(join, itertools.repeat(x, copies - 1), x)


def e_n_zp(n: int, p: int) -> FreeZpComplex:
    """The standard n-dimensional, (n-1)-connected free Z_p-complex: the
    iterated join of n+1 copies of the discrete Z_p.

    Vertex i*p + j is symbol j in copy i; a simplex picks at most one symbol
    per copy.  The discrete factors are disconnected, so the result is not
    flagged as simply connected.  It is a flag complex: two vertices are
    adjacent iff they lie in different copies, so a clique picks at most one
    vertex per copy, and is a simplex.  Its (p + 1)^(n + 1) - 1 simplices
    are checked before the p vertices are built.
    """
    copies = whole(n, "n") + 1
    within_budget(join_size(prime(p), copies), f"the join of {copies} copies")
    x = make_discrete_zp(p)
    return reduce(join, itertools.repeat(x, n), x)


def subdivision_size(f_vector) -> int:
    """The number of simplices of the barycentric subdivision of a complex
    with this f-vector: each k-simplex tops as many chains of faces as its
    k + 1 vertices have ordered set partitions (the Fubini number a(k + 1),
    where a(n) is the sum over j = 1..n of C(n, j) a(n - j), a(0) = 1)."""
    fubini = [1]
    for n in range(1, len(f_vector) + 1):
        fubini.append(sum(math.comb(n, j) * fubini[n - j] for j in range(1, n + 1)))
    return sum(map(mul, f_vector, fubini[1:]))


def barycentric_subdivide(x: FreeZpComplex) -> FreeZpComplex:
    """Barycentric subdivision with the induced (still free) action.

    Vertex i is the barycenter of the i-th simplex in (dimension,
    lexicographic) order, the order `simplices` yields.  A simplex of the
    subdivision is a chain of faces, and every chain lies in a full flag of
    a maximal simplex, so the complex is the closure of those flags.  A full
    flag of s is a full flag of a facet of s extended by s; a face comes
    before its cofaces, so every flag is already increasing.  The size is predicted from the f-vector
    first, and BudgetExceeded is raised before any flag is built when it
    passes DEFAULT_CELL_BUDGET.

    The subdivision is a flag complex: two barycenters are adjacent iff one
    face contains the other, and pairwise comparable faces form a chain."""
    within_budget(subdivision_size(x.complex.f_vector()), "the subdivision")
    index = {s: i for i, s in enumerate(x.complex.simplices())}
    flags: dict[Simplex, list[Simplex]] = {(): [()]}  # a vertex's facet is ()
    for s, i in index.items():
        flags[s] = [c + (i,) for f in itertools.combinations(s, len(s) - 1) for c in flags[f]]
    perm = tuple(index[x.action.apply(s)] for s in index)
    tops = (flags[s] for s in itertools.chain.from_iterable(x.complex.maximal))
    return FreeZpComplex(SimplicialComplex(len(index), tops), ZpAction(x.p, perm))


# ---------------------------------------------------------------------------
# JSON interchange: {"p", "vertices", "perm", "simplices"} with maximal
# simplices only, which are the complex as stored.  `vertices` counts the
# vertices, and each one lies in a listed simplex.

def complex_to_json_dict(x: FreeZpComplex) -> dict:
    return {
        "p": x.p,
        "vertices": x.complex.vertex_count,
        "perm": list(x.action.perm),
        "simplices": [list(s) for s in x.complex.maximal_simplices()],
    }


def complex_from_json_dict(data: dict) -> FreeZpComplex:
    """Load a complex file: `from_simplices` checks its simplices and keeps
    the maximal ones; no level of the closure is built until a caller reads
    it.  The closure a reader may build is bounded first, by the sum over
    listed simplices s of 2^|s| - 1 faces, which counts shared faces once
    per simplex: so a file that lists non-maximal simplices may be refused
    (BudgetExceeded) although its closure would fit the budget."""
    try:
        p = data["p"]
        vertices = data["vertices"]
        perm = tuple(data["perm"])
        simplices = list(map(tuple, data["simplices"]))
        # type, not isinstance: JSON true/false load as bool, a subclass of int
        if not {type(p), type(vertices)} <= {int}:
            raise ValidationError("malformed complex JSON: p and vertices must hold integers")
        within_budget(sum(map((1).__lshift__, map(len, map(set, simplices)))) - len(simplices),
                      "the closure")
        return FreeZpComplex(SimplicialComplex.from_simplices(vertices, simplices),
                             ZpAction(p, perm))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed complex JSON: {exc}") from exc


def sha256_of(obj) -> str:
    """The hex SHA-256 of obj's compact JSON text with sorted keys."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def content_key(x: FreeZpComplex) -> str:
    """Stable content hash used to tie certificates to their space."""
    return "cpx:" + sha256_of(complex_to_json_dict(x))[:16]
