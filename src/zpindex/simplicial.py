"""Finite simplicial complexes with free simplicial Z_p-actions.

A complex stores its simplices as sorted integer tuples grouped by dimension,
so equality and hashing are canonical.  Actions are vertex permutations of
prime order p; freeness is the setwise-fixed-simplex test, which is exact for
simplicial actions of prime-order cyclic groups (a setwise-fixed simplex
would fix its barycenter).  Homology is the driver `fplinalg.betti_numbers`
with the simplex face rule.

Closure, validation and the maximal scan run once per level on its vertex
columns (column j: vertex j of each simplex), so per-simplex work runs in C.
Each column test decides its per-simplex rule: rows hold only ints iff each
column does; rows increase strictly iff each column is below the next;
vertices are in range iff column 0's minimum and the last column's maximum
are; dropping column j leaves the j-th facets.
Action images are two tee'd streams read in step, so no list of them is kept.

Every free Z_p-set of the package (vertices here, periodic words in
`subshifts`, cells in `cubical`) is walked orbit by orbit with the one
`shift_orbits`, and every iterated join, E_n(Z_p) included, is `join_power`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from operator import and_, itemgetter, lt, ne, not_

from .errors import ValidationError
from .fplinalg import betti_numbers, is_prime

Simplex = tuple[int, ...]

# Sentinel connectivity values: the empty complex, and complexes whose
# reduced homology vanishes everywhere (connectivity is unbounded there).
EMPTY_CONNECTIVITY = -2
INFINITE_CONNECTIVITY = math.inf


def _columns(level) -> list[tuple[int, ...]]:
    """Column j holds vertex j of each simplex, in the level's iteration order."""
    return [tuple(map(itemgetter(j), level)) for j in range(len(next(iter(level), ())))]


def _facets(cols) -> list:
    """Per column j, an iterator over the rows of the other columns: the j-th facets."""
    return [zip(*cols[:j], *cols[j + 1:]) for j in range(len(cols))]


class SimplicialComplex:
    """Downward-closed family of sorted vertex tuples on 0..vertex_count-1."""

    __slots__ = ("vertex_count", "by_dim", "_hash")

    def __init__(self, vertex_count: int, by_dim):
        # type, not isinstance: bool is a subclass of int
        if type(vertex_count) is not int or vertex_count < 0:
            raise ValidationError(f"vertex count {vertex_count!r} must be a nonnegative integer")
        self.vertex_count = vertex_count
        self.by_dim = tuple(tuple(level) for level in by_dim)
        self._hash = None
        self._validate()

    @classmethod
    def from_simplices(cls, vertex_count: int, simplices) -> "SimplicialComplex":
        """Build the downward closure of an arbitrary simplex family: group
        the simplices by dimension, then from the top down add the facets
        of each level to the level below.  Vertices that do not sort
        against each other are refused here; `__init__` refuses the rest."""
        try:
            by_size = sorted(map(tuple, map(sorted, map(set, simplices))), key=len)
            if by_size and not by_size[0]:
                raise ValidationError("empty vertex tuple is not a simplex")
            levels: list[set[Simplex]] = [set() for _ in range(len(by_size[-1]) if by_size else 0)]
            for size, group in itertools.groupby(by_size, len):
                levels[size - 1].update(group)
            for d in range(len(levels) - 1, 0, -1):
                levels[d - 1].update(*_facets(_columns(levels[d])))
            levels = [sorted(level) for level in levels]
        except TypeError as exc:
            raise ValidationError(f"simplices must hold integers: {exc}") from exc
        return cls(vertex_count, levels)

    def _validate(self):
        n = self.vertex_count
        for d, level in enumerate(self.by_dim):
            if set(map(type, level)) - {tuple}:
                bad = next(s for s in level if type(s) is not tuple)
                raise ValidationError(f"simplex {bad!r} is not a tuple")
            if set(map(len, level)) - {d + 1}:
                bad = next(s for s in level if len(s) != d + 1)
                raise ValidationError(f"simplex {bad} filed under dimension {d}")
            cols = _columns(level)
            # type, not isinstance: bool is a subclass of int
            if any(set(map(type, col)) - {int} for col in cols):
                bad = next(s for s in level if set(map(type, s)) - {int})
                raise ValidationError(f"simplex {bad} must hold integers")
            if not all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])):
                bad = next(s for s in level if not all(map(lt, s, s[1:])))
                raise ValidationError(f"simplex {bad} is not a sorted duplicate-free tuple")
            if level and (min(cols[0]) < 0 or max(cols[-1]) >= n):
                bad = next(s for s in level if s[0] < 0 or s[-1] >= n)
                raise ValidationError(f"simplex {bad} exceeds vertex range 0..{n - 1}")
            if not all(map(lt, level, level[1:])):
                bad = next(b for a, b in zip(level, level[1:]) if a >= b)
                raise ValidationError(f"dimension {d} is not sorted/duplicate-free at {bad}")
            if d and not all(map(set(self.by_dim[d - 1]).issuperset, _facets(cols))):
                below = set(self.by_dim[d - 1])
                bad, face = next((s, f) for s in level
                                 for f in (s[:i] + s[i + 1:] for i in range(d + 1)) if f not in below)
                raise ValidationError(f"face {face} of {bad} missing (not downward closed)")
        if self.by_dim and not self.by_dim[-1]:
            raise ValidationError("top dimension level is empty; trim by_dim")

    @property
    def dim(self) -> int:
        return len(self.by_dim) - 1

    def is_empty(self) -> bool:
        return not self.by_dim

    def simplices(self):
        for level in self.by_dim:
            yield from level

    def simplex_set(self) -> frozenset:
        return frozenset(self.simplices())

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.by_dim)

    def maximal_simplices(self) -> list[Simplex]:
        """Simplices that are no facet of a simplex one dimension up (so, the
        complex being downward closed, no proper face of any simplex), in
        (dimension, lexicographic) order."""
        maximal = []
        for level, above in zip(self.by_dim, self.by_dim[1:] + ((),)):
            facets = set().union(*_facets(_columns(above)))
            maximal.extend(itertools.filterfalse(facets.__contains__, level))
        return maximal

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.vertex_count == other.vertex_count
            and self.by_dim == other.by_dim
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vertex_count, self.by_dim))
        return self._hash

    def __repr__(self):
        return f"SimplicialComplex(vertices={self.vertex_count}, f={self.f_vector()})"


def shift_orbits(words, step, check, missing: str):
    """Walk the orbits of `step` through the distinct `words`: run `check`
    on the first member of each orbit in `words` order, then step it round,
    raising ValidationError(missing.format(w)) when the image of w is not a
    word.  Yields each orbit, listed from its first member, as a tuple of
    positions in `words`."""
    index = {w: i for i, w in enumerate(words)}
    seen = bytearray(len(words))
    for i, first in enumerate(words):
        if seen[i]:
            continue
        check(first)
        orbit = [i]
        image = step(first)
        while image != first:
            j = index.get(image)
            if j is None:
                raise ValidationError(missing.format(words[orbit[-1]]))
            seen[j] = 1
            orbit.append(j)
            image = step(words[j])
        yield tuple(orbit)


@dataclass(frozen=True)
class ZpAction:
    """Vertex permutation of order dividing the prime p."""

    p: int
    perm: tuple[int, ...]

    def __post_init__(self):
        if type(self.p) is not int or not is_prime(self.p):
            raise ValidationError(f"p={self.p!r} is not prime")
        n = len(self.perm)
        if set(map(type, self.perm)) - {int}:
            raise ValidationError("perm must hold integers")
        if sorted(self.perm) != list(range(n)):
            raise ValidationError("perm is not a permutation of 0..n-1")
        # perm^p = perm o perm^(p-1)
        if [self.perm[v] for v in self.power(self.p - 1)] != list(range(n)):
            raise ValidationError("perm^p is not the identity")

    def power(self, a: int) -> tuple[int, ...]:
        out = list(range(len(self.perm)))
        for _ in range(a % self.p):
            out = [self.perm[v] for v in out]
        return tuple(out)

    def apply(self, simplex: Simplex) -> Simplex:
        return tuple(sorted(self.perm[v] for v in simplex))


class FreeZpComplex:
    """A simplicial complex together with a free simplicial Z_p-action."""

    __slots__ = ("complex", "action")

    def __init__(self, complex: SimplicialComplex, action: ZpAction):
        self.complex = complex
        self.action = action
        self._validate()

    def _validate(self):
        perm = self.action.perm
        if len(perm) != self.complex.vertex_count:
            raise ValidationError("permutation length differs from vertex count")
        for d, level in enumerate(self.complex.by_dim):
            images, again = itertools.tee(map(tuple, map(sorted, zip(
                *[map(perm.__getitem__, map(itemgetter(j), level)) for j in range(d + 1)]))))
            ok = map(and_, map(set(level).__contains__, images), map(ne, again, level))
            bad = next(itertools.compress(level, map(not_, ok)), None)
            if bad is not None and self.action.apply(bad) != bad:
                raise ValidationError(f"action is not simplicial: image of {bad} missing")
            # Checking the generator suffices: p is prime, so T is a power of
            # any T^a with 0 < a < p, and a simplex fixed by T^a is fixed by T.
            if bad is not None:
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
        """Orbits of the action on vertices of the complex, each starting at
        its smallest member, sorted by that member."""
        present = [s[0] for s in self.complex.by_dim[0]] if not self.complex.is_empty() else []
        orbits = shift_orbits(present, self.action.perm.__getitem__, lambda v: None,
                              "action image of vertex {} missing")
        return [tuple(map(present.__getitem__, orbit)) for orbit in orbits]

    def __eq__(self, other):
        return (
            isinstance(other, FreeZpComplex)
            and self.complex == other.complex
            and self.action == other.action
        )

    def __hash__(self):
        return hash((self.complex, self.action))

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
        for k, b in enumerate(reduced_betti):
            if b != 0:
                return k - 1
        return INFINITE_CONNECTIVITY


def homology(cx: SimplicialComplex, p: int, reduced: bool = True) -> HomologyProfile:
    """Betti numbers of cx over F_p; the face of a simplex without its i-th
    vertex has the sign (-1)^i."""
    def signed_faces(s: Simplex):
        return ((s[:i] + s[i + 1:], -1 if i % 2 else 1) for i in range(len(s)))
    return HomologyProfile(p, betti_numbers(cx.by_dim, signed_faces, p, reduced), reduced)


def make_discrete_zp(p: int) -> FreeZpComplex:
    """p isolated vertices cyclically permuted: the 0-dimensional model."""
    if not is_prime(p):
        raise ValidationError(f"p={p} is not prime")
    cx = SimplicialComplex(p, [[(v,) for v in range(p)]])
    return FreeZpComplex(cx, ZpAction(p, tuple((v + 1) % p for v in range(p))))


def join(x: FreeZpComplex, y: FreeZpComplex) -> FreeZpComplex:
    """Combinatorial join: simplices are disjoint unions of a simplex from
    each side (either side may contribute nothing), acted on simultaneously;
    so the complex is the closure of the unions of two maximal simplices.

    An empty factor is the identity for the join.
    """
    if x.p != y.p:
        raise ValidationError(f"join over mismatched primes {x.p} != {y.p}")
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
    vertex i*n + v is vertex v of copy i, where x has n vertices."""
    if copies < 1:
        raise ValidationError("need at least one copy")
    out = x
    for _ in range(copies - 1):
        out = join(out, x)
    return out


def e_n_zp(n: int, p: int) -> FreeZpComplex:
    """The standard n-dimensional, (n-1)-connected free Z_p-complex: the
    iterated join of n+1 copies of the discrete Z_p.

    Vertex i*p + j is symbol j in copy i; a simplex picks at most one symbol
    per copy.  The discrete factors are disconnected, so the result is not
    flagged as simply connected.
    """
    if n < 0:
        raise ValidationError(f"n={n} must be nonnegative")
    return join_power(make_discrete_zp(p), n + 1)


def subdivide_complex(cx: SimplicialComplex) -> tuple[SimplicialComplex, dict[Simplex, int]]:
    """Barycentric subdivision; returns the new complex and the map sending
    each old simplex to its barycenter's vertex index."""
    if cx.is_empty():
        return cx, {}
    verts = sorted(cx.simplices(), key=lambda s: (len(s), s))
    index = {s: i for i, s in enumerate(verts)}
    # Chains of proper faces; dimensions strictly increase along a chain.
    chains_ending_at: dict[Simplex, list[tuple[int, ...]]] = {}
    for s in verts:
        own = (index[s],)
        ending = [own]
        if len(s) > 1:
            for face in _proper_faces(s):
                for c in chains_ending_at[face]:
                    ending.append(c + (index[s],))
        chains_ending_at[s] = ending
    by_dim: dict[int, set[Simplex]] = {}
    for ending in chains_ending_at.values():
        for c in ending:
            by_dim.setdefault(len(c) - 1, set()).add(tuple(sorted(c)))
    top = max(by_dim)
    levels = [sorted(by_dim.get(d, ())) for d in range(top + 1)]
    return SimplicialComplex(len(verts), levels), index


def _proper_faces(s: Simplex):
    for r in range(1, len(s)):
        yield from itertools.combinations(s, r)


def barycentric_subdivide(x: FreeZpComplex) -> FreeZpComplex:
    """Barycentric subdivision with the induced (still free) action."""
    sd, index = subdivide_complex(x.complex)
    perm = [0] * sd.vertex_count
    for s, i in index.items():
        perm[i] = index[x.action.apply(s)]
    return FreeZpComplex(sd, ZpAction(x.p, tuple(perm)))


# ---------------------------------------------------------------------------
# JSON interchange: {"p", "vertices", "perm", "simplices"} with maximal
# simplices only; the downward closure is recomputed on load.

def complex_to_json_dict(x: FreeZpComplex) -> dict:
    return {
        "p": x.p,
        "vertices": x.complex.vertex_count,
        "perm": list(x.action.perm),
        "simplices": [list(s) for s in x.complex.maximal_simplices()],
    }


def complex_from_json_dict(data: dict) -> FreeZpComplex:
    try:
        p = data["p"]
        vertices = data["vertices"]
        perm = tuple(data["perm"])
        simplices = list(map(tuple, data["simplices"]))
        # type, not isinstance: JSON true/false load as bool, a subclass of int
        if not {type(p), type(vertices)} <= {int}:
            raise ValidationError("malformed complex JSON: p and vertices must hold integers")
        return FreeZpComplex(SimplicialComplex.from_simplices(vertices, simplices),
                             ZpAction(p, perm))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed complex JSON: {exc}") from exc


def content_key(x: FreeZpComplex) -> str:
    """Stable content hash used to tie certificates to their space."""
    text = json.dumps(complex_to_json_dict(x), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"cpx:{digest[:16]}"
