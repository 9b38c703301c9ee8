"""Equivariant cubical inner approximations of periodic-point spaces.

Points are p-tuples of coordinates in [0,1]^N on a uniform grid (or in the
circle of circumference 2 split into 2G arcs).  A cell is a p-tuple of
axis-aligned boxes whose axis intervals have grid length 0 or 1.  A cell is
kept only when the defining constraint holds at every point of the cell,
certified by exact integer interval arithmetic; the kept set is therefore
automatically closed under faces and under the cyclic shift, and the shift
acts freely on it.  Inner approximations certify map-into lower bounds only;
upper bounds come from the ambient-sphere formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, ValidationError
from .fplinalg import is_prime
from .simplicial import (
    FreeZpComplex,
    HomologyProfile,
    SimplicialComplex,
    ZpAction,
    chain_homology,
)

AxisInterval = tuple[int, int]  # (lo, length), length in {0, 1}
Box = tuple[AxisInterval, ...]
Cell = tuple[Box, ...]

DEFAULT_CELL_BUDGET = 10_000_000
MAX_P = 7
MAX_N = 3


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: step 1/G on [0,1]^N, or 2G arcs on the circle R/2Z."""

    N: int
    G: int
    circle_valued: bool = False

    def __post_init__(self):
        if self.N < 1 or self.G < 1:
            raise ValidationError("grid needs N >= 1 and G >= 1")

    def positions(self) -> int:
        """Number of distinct grid point positions per axis."""
        return 2 * self.G if self.circle_valued else self.G + 1

    def axis_intervals(self) -> list[AxisInterval]:
        if self.circle_valued:
            return [(lo, ln) for lo in range(2 * self.G) for ln in (0, 1)]
        return [(lo, 0) for lo in range(self.G + 1)] + \
               [(lo, 1) for lo in range(self.G)]


def _axis_gap(a: AxisInterval, b: AxisInterval) -> int:
    """Minimal distance in grid units between two line intervals."""
    return max(0, b[0] - (a[0] + a[1]), a[0] - (b[0] + b[1]))


def _circle_gap(a: AxisInterval, b: AxisInterval, two_g: int) -> int:
    """Minimal circular distance in grid units between two arcs mod 2G."""
    if (b[0] - a[0]) % two_g <= a[1] or (a[0] - b[0]) % two_g <= b[1]:
        return 0
    return min((b[0] - a[0] - a[1]) % two_g, (a[0] - b[0] - b[1]) % two_g)


@dataclass(frozen=True)
class OffsetGapConstraint:
    """Every pair of coordinates at the cyclic offset stays >= delta apart."""

    delta: Fraction
    offset: int

    def __post_init__(self):
        if self.delta <= 0:
            raise ValidationError("delta must be positive")
        if self.offset < 1:
            raise ValidationError("offset must be >= 1")

    def cell_ok(self, cell: Cell, grid: GridSpec, p: int) -> bool:
        s, t = self.delta.numerator, self.delta.denominator
        threshold = s * s * grid.G * grid.G
        t2 = t * t
        for n in range(p):
            a, b = cell[n], cell[(n + self.offset) % p]
            sq = 0
            for axis in range(grid.N):
                g = _axis_gap(a[axis], b[axis])
                sq += g * g
            if t2 * sq < threshold:
                return False
        return True

    def describe(self) -> dict:
        return {"space": "Xm", "delta": str(self.delta), "m": self.offset}


@dataclass(frozen=True)
class CirclePairConstraint:
    """Constraints on consecutive circle coordinates.

    kind "Z": the larger of the two consecutive distances is >= 1/2 on the
    whole cell (lower bounds of the circular metric over arc pairs).
    kind "Y": the larger of the two is identically 1 on the whole cell, which
    for product cells forces an antipodal pair of grid points; this is a
    severe inner approximation of a measure-zero equality constraint.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("Y", "Z"):
            raise ValidationError("kind must be 'Y' or 'Z'")

    def cell_ok(self, cell: Cell, grid: GridSpec, p: int) -> bool:
        two_g = 2 * grid.G
        for n in range(p):
            a = cell[n][0]
            b = cell[(n + 1) % p][0]
            c = cell[(n + 2) % p][0]
            if self.kind == "Z":
                # rho >= 1/2 on an arc pair iff 2*gap >= G in grid units.
                if 2 * _circle_gap(a, b, two_g) < grid.G and \
                   2 * _circle_gap(b, c, two_g) < grid.G:
                    return False
            else:
                if not (_antipodal_points(a, b, grid) or _antipodal_points(b, c, grid)):
                    return False
        return True

    def describe(self) -> dict:
        return {"space": self.kind}


def _antipodal_points(a: AxisInterval, b: AxisInterval, grid: GridSpec) -> bool:
    return a[1] == 0 and b[1] == 0 and (a[0] - b[0]) % (2 * grid.G) == grid.G


def cell_dim(cell: Cell) -> int:
    return sum(iv[1] for box in cell for iv in box)


def shift_cell(cell: Cell, a: int = 1) -> Cell:
    p = len(cell)
    return tuple(cell[(n + a) % p] for n in range(p))


def cell_faces(cell: Cell, grid: GridSpec) -> list[Cell]:
    """Codimension-one faces: the top and then the bottom face of the j-th
    unit interval (coordinate-major order) sit at positions 2j and 2j + 1."""
    out = []
    two_g = 2 * grid.G
    for n, box in enumerate(cell):
        for axis, (lo, ln) in enumerate(box):
            if ln == 0:
                continue
            hi = (lo + 1) % two_g if grid.circle_valued else lo + 1
            for pos in (hi, lo):
                nb = list(box)
                nb[axis] = (pos, 0)
                nc = list(cell)
                nc[n] = tuple(nb)
                out.append(tuple(nc))
    return out


class CubicalZpComplex:
    """Shift-closed, face-closed family of certified cells on which the
    cyclic shift acts freely."""

    __slots__ = ("p", "grid", "constraint", "cells", "_cell_set")

    def __init__(self, p: int, grid: GridSpec, constraint, cells):
        self.p = p
        self.grid = grid
        self.constraint = constraint
        self.cells = tuple(sorted(cells))
        self._cell_set = frozenset(self.cells)
        self._validate()

    def _validate(self):
        if not is_prime(self.p):
            raise ValidationError(f"p={self.p} is not prime")
        positions = self.grid.positions()
        for cell in self.cells:
            if len(cell) != self.p:
                raise ValidationError("cell is not a p-tuple of boxes")
            for box in cell:
                if len(box) != self.grid.N:
                    raise ValidationError("box does not have N axes")
                for lo, ln in box:
                    if ln not in (0, 1):
                        raise ValidationError("axis interval length must be 0 or 1")
                    if self.grid.circle_valued:
                        if not 0 <= lo < positions:
                            raise ValidationError("arc start out of range")
                    elif not (0 <= lo and lo + ln <= self.grid.G):
                        raise ValidationError("interval leaves the grid")
            if not self.constraint.cell_ok(cell, self.grid, self.p):
                raise ValidationError(f"cell {cell} fails the defining constraint")
            for face in cell_faces(cell, self.grid):
                if face not in self._cell_set:
                    raise ValidationError(f"face {face} of {cell} missing")
            for a in range(1, self.p):
                shifted = shift_cell(cell, a)
                if shifted == cell:
                    raise ValidationError(f"cell {cell} is fixed by shift^{a}")
                if shifted not in self._cell_set:
                    raise ValidationError(f"shift^{a} image of {cell} missing")

    @property
    def dim(self) -> int:
        return max((cell_dim(c) for c in self.cells), default=-1)

    def is_empty(self) -> bool:
        return not self.cells

    def cells_of_dim(self, k: int) -> list[Cell]:
        return [c for c in self.cells if cell_dim(c) == k]

    def vertex_cells(self) -> list[Cell]:
        return self.cells_of_dim(0)

    def __eq__(self, other):
        return (isinstance(other, CubicalZpComplex) and self.p == other.p
                and self.grid == other.grid and self.cells == other.cells)

    def __repr__(self):
        return (f"CubicalZpComplex(p={self.p}, grid={self.grid}, "
                f"cells={len(self.cells)}, dim={self.dim})")


def _enumerate_cells(p: int, grid: GridSpec, constraint,
                     budget: int) -> CubicalZpComplex:
    choices = grid.axis_intervals()
    slots = p * grid.N
    count = len(choices) ** slots
    if count > budget:
        raise BudgetExceeded(
            f"{count} candidate cells exceed the budget of {budget}", count=count)
    kept = []
    for flat in itertools.product(choices, repeat=slots):
        cell = tuple(tuple(flat[n * grid.N:(n + 1) * grid.N]) for n in range(p))
        if constraint.cell_ok(cell, grid, p):
            kept.append(cell)
    return CubicalZpComplex(p, grid, constraint, kept)


def build_pp_xm(N: int, delta: Fraction, m: int, p: int, grid: GridSpec,
                budget: int = DEFAULT_CELL_BUDGET) -> CubicalZpComplex:
    """Certified cells of the space of p-tuples in [0,1]^N whose coordinates
    at cyclic offset m differ by at least delta."""
    if grid.circle_valued:
        raise ValidationError("offset-gap spaces live on the cube grid")
    if grid.N != N:
        raise ValidationError(f"grid dimension {grid.N} != N={N}")
    if not is_prime(p):
        raise ValidationError(f"p={p} is not prime")
    if p > MAX_P or N > MAX_N:
        raise ValidationError(f"instances beyond p={MAX_P}, N={MAX_N} are unsupported")
    if m < 1:
        raise ValidationError("offset m must be >= 1")
    constraint = OffsetGapConstraint(Fraction(delta), m)
    return _enumerate_cells(p, grid, constraint, budget)


def build_pp_yz(which: str, p: int, grid: GridSpec,
                budget: int = DEFAULT_CELL_BUDGET) -> CubicalZpComplex:
    """Certified cells of the circle-valued consecutive-pair spaces."""
    if not grid.circle_valued or grid.N != 1:
        raise ValidationError("Y/Z spaces need a circle-valued grid with N=1")
    if not is_prime(p):
        raise ValidationError(f"p={p} is not prime")
    if p > MAX_P:
        raise ValidationError(f"instances beyond p={MAX_P} are unsupported")
    constraint = CirclePairConstraint(which)
    return _enumerate_cells(p, grid, constraint, budget)


# ---------------------------------------------------------------------------
# Cubical homology.

def cubical_boundary_columns(cx: CubicalZpComplex, k: int) -> list[dict[int, int]]:
    """The j-th unit interval of a cell contributes (-1)^j * (top face -
    bottom face); by the order of cell_faces, the face at position i has the
    sign + for i = 0, 3 mod 4 and - for i = 1, 2 mod 4."""
    if k == 0:
        return [dict() for _ in cx.cells_of_dim(0)]
    lower = {c: i for i, c in enumerate(cx.cells_of_dim(k - 1))}
    cols = []
    for cell in cx.cells_of_dim(k):
        col = {}
        for i, face in enumerate(cell_faces(cell, cx.grid)):
            col[lower[face]] = 1 if i % 4 in (0, 3) else -1
        cols.append(col)
    return cols


def cubical_homology(cx: CubicalZpComplex, p_coeff: int,
                     reduced: bool = False) -> HomologyProfile:
    """Betti numbers over F_{p_coeff} from the cubical boundary operators."""
    return chain_homology(lambda k: cubical_boundary_columns(cx, k), cx.dim, p_coeff, reduced)


# ---------------------------------------------------------------------------
# Triangulation.  Each cell is split along monotone lo-to-hi corner paths
# (one simplex per ordering of its unit axes).  The decomposition is defined
# per cell from its own intervals, restricts to the same rule on faces, and
# is permuted into itself by the cyclic shift, so the action stays simplicial
# and free and the geometric realization is unchanged.

def _corner(cell: Cell, bumped: frozenset, grid: GridSpec) -> Cell:
    two_g = 2 * grid.G
    out = []
    for n, box in enumerate(cell):
        nb = []
        for axis, (lo, ln) in enumerate(box):
            if ln == 1 and (n, axis) in bumped:
                pos = (lo + 1) % two_g if grid.circle_valued else lo + 1
            else:
                pos = lo
            nb.append((pos, 0))
        out.append(tuple(nb))
    return tuple(out)


def triangulate_cells(cx: CubicalZpComplex) -> tuple[SimplicialComplex, list[Cell]]:
    """Triangulation only; returns the complex and the vertex-cell order."""
    if cx.grid.circle_valued and cx.grid.G < 2:
        raise ValidationError("circle triangulation needs G >= 2 (distinct arc endpoints)")
    verts = cx.vertex_cells()
    index = {v: i for i, v in enumerate(verts)}
    if not verts:
        return SimplicialComplex(0, ()), []
    tops = set()
    for cell in cx.cells:
        unit_slots = [(n, axis)
                      for n, box in enumerate(cell)
                      for axis, (lo, ln) in enumerate(box) if ln == 1]
        if not unit_slots:
            tops.add((index[cell],))
            continue
        for order in itertools.permutations(unit_slots):
            bumped: set = set()
            path = [index[_corner(cell, frozenset(), cx.grid)]]
            for slot in order:
                bumped.add(slot)
                path.append(index[_corner(cell, frozenset(bumped), cx.grid)])
            simplex = tuple(sorted(path))
            if len(set(simplex)) != len(unit_slots) + 1:
                raise ValidationError("degenerate corner path; refine the grid")
            tops.add(simplex)
    return SimplicialComplex.from_simplices(len(verts), sorted(tops)), verts


def cubical_to_simplicial(cx: CubicalZpComplex) -> FreeZpComplex:
    complex_, verts = triangulate_cells(cx)
    if not verts:
        return FreeZpComplex(SimplicialComplex(0, ()), ZpAction(cx.p, ()))
    index = {v: i for i, v in enumerate(verts)}
    perm = tuple(index[shift_cell(v)] for v in verts)
    return FreeZpComplex(complex_, ZpAction(cx.p, perm))


def close_cells(cells, grid: GridSpec):
    """Downward face closure of a cell family."""
    closed = set()
    stack = list(cells)
    while stack:
        cell = stack.pop()
        if cell in closed:
            continue
        closed.add(cell)
        stack.extend(cell_faces(cell, grid))
    return sorted(closed)


# ---------------------------------------------------------------------------
# Coordinate relabeling between offset-m and offset-1 spaces.

@dataclass(frozen=True)
class RelabelResult:
    """Cell-level isomorphism pair between offset-1 and offset-m complexes.

    to_offset_m is n -> x_{l n} on offset-1 cells; to_offset_one is
    n -> y_{m n} on offset-m cells.  Construction verifies the two maps are
    mutually inverse bijections and that to_offset_m intertwines the shift
    with its m-th power.
    """

    offset_one: CubicalZpComplex
    offset_m: CubicalZpComplex
    m: int
    l: int
    to_offset_m: dict
    to_offset_one: dict


def relabel_isomorphism(cx: CubicalZpComplex, l: int) -> RelabelResult:
    constraint = cx.constraint
    if not isinstance(constraint, OffsetGapConstraint):
        raise ValidationError("relabeling applies to offset-gap complexes")
    m, p = constraint.offset, cx.p
    if m % p == 0:
        raise ValidationError(f"offset m={m} is divisible by p={p}")
    if (l * m) % p != 1:
        raise ValidationError(f"l={l} is not inverse to m={m} mod p={p}")
    one = build_pp_xm(cx.grid.N, constraint.delta, 1, p, cx.grid)

    def relabel(cell: Cell, mult: int) -> Cell:
        return tuple(cell[(mult * n) % p] for n in range(p))

    f = {cell: relabel(cell, l) for cell in one.cells}
    g = {cell: relabel(cell, m) for cell in cx.cells}
    for cell, image in f.items():
        if image not in cx._cell_set:
            raise ValidationError("relabeled offset-1 cell missing from offset-m complex")
        if g[image] != cell:
            raise ValidationError("g(f(cell)) != cell")
        if f[shift_cell(cell)] != shift_cell(image, m):
            raise ValidationError("relabeling does not intertwine the shift")
    for cell, image in g.items():
        if image not in one._cell_set:
            raise ValidationError("relabeled offset-m cell missing from offset-1 complex")
        if f[image] != cell:
            raise ValidationError("f(g(cell)) != cell")
    return RelabelResult(one, cx, m, l, f, g)
