"""Equivariant cubical inner approximations of periodic-point spaces.

Points are p-tuples of coordinates in [0,1]^N on a uniform grid (or in the
circle of circumference 2 split into 2G arcs).  A box is an axis-aligned box
whose axis intervals have grid length 0 or 1, and a cell is a p-periodic
word over the alphabet of boxes.  The defining constraint is a window
constraint on such words (pairs at offset m for X_m, consecutive triples for
Y/Z), so the cells are listed by the one enumerator `subshifts.cyclic_words`,
shifted by `subshifts.rotate` and walked one orbit at a time by
`simplicial.shift_orbits`.
A window is forbidden unless the constraint holds at every point of its
boxes, certified by exact integer interval arithmetic; the kept set is
therefore automatically closed under faces and under the cyclic shift, and
the shift acts freely on it.  Inner approximations certify map-into lower
bounds only.  An index upper bound on the true space comes from the
ambient-sphere formula, which `certificates.ambient_sphere_bound` derives
from an offset-gap complex in a cube.  Cubical homology is the driver
`fplinalg.betti_numbers` with the cubical face rule of `cubical_homology`.

Only X_1 needs bounds of its own.  For p not dividing m, take l with
l*m = 1 mod p; the relabelling (x_n) -> (x_{l n}) maps X_1 onto X_m, cell by
cell on matching grids, and turns the shift T into T^m.  T^m also generates
Z_p, and E_n with its generator replaced by a power is isomorphic to E_n
(permute the p points of each join factor), so X_m and X_1 have the same
index and coindex, on the true spaces and on matching inner approximations.
`tests/test_cubical.py::TestRelabel` checks the cell-level half.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError, whole
from .fplinalg import betti_numbers, prime
from .simplicial import FreeZpComplex, HomologyProfile, SimplicialComplex, ZpAction, shift_orbits
from .subshifts import cyclic_words, rotate, satisfies

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
        whole(self.N, "N", 1)
        whole(self.G, "G", 1)
        if type(self.circle_valued) is not bool:
            raise ValidationError(f"circle_valued must be a bool, not {self.circle_valued!r}")

    def axis_intervals(self) -> list[AxisInterval]:
        if self.circle_valued:
            return [(lo, ln) for lo in range(2 * self.G) for ln in (0, 1)]
        return [(lo, 0) for lo in range(self.G + 1)] + \
               [(lo, 1) for lo in range(self.G)]

    def boxes(self) -> list[Box]:
        """The alphabet of cells, sorted: every choice of one interval per axis."""
        return sorted(itertools.product(self.axis_intervals(), repeat=self.N))


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

    delta: int | Fraction
    offset: int

    def __post_init__(self):
        if type(self.delta) not in (int, Fraction) or self.delta <= 0:
            raise ValidationError(f"delta {self.delta!r} must be a positive int or Fraction")
        whole(self.offset, "offset", 1)

    @property
    def offsets(self) -> tuple[int, int]:
        return (0, self.offset)

    def forbidden_test(self, grid: GridSpec):
        """forbidden((a, b)): the boxes' squared gap is < delta^2, in grid units.
        Each distinct window is judged once per call (`functools.cache`)."""
        s, t = self.delta.numerator, self.delta.denominator
        threshold = s * s * grid.G * grid.G
        t2 = t * t

        def judge(window: tuple[Box, Box]) -> bool:
            return t2 * sum(_axis_gap(x, y) ** 2 for x, y in zip(*window)) < threshold
        return functools.cache(judge)


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
    offsets = (0, 1, 2)

    def __post_init__(self):
        if self.kind not in ("Y", "Z"):
            raise ValidationError("kind must be 'Y' or 'Z'")

    def forbidden_test(self, grid: GridSpec):
        """forbidden((a, b, c)) on three consecutive one-axis boxes, each
        distinct window judged once per call."""
        g, two_g = grid.G, 2 * grid.G
        if self.kind == "Z":
            # rho >= 1/2 on an arc pair iff 2*gap >= G in grid units.
            def judge(window: tuple[Box, Box, Box]) -> bool:
                (a,), (b,), (c,) = window
                return (2 * _circle_gap(a, b, two_g) < g
                        and 2 * _circle_gap(b, c, two_g) < g)
        else:
            # Two grid points G arcs apart: an antipodal pair.
            def judge(window: tuple[Box, Box, Box]) -> bool:
                ((x, xl),), ((y, yl),), ((z, zl),) = window
                return not (xl == yl == 0 and (x - y) % two_g == g
                            or yl == zl == 0 and (y - z) % two_g == g)
        return functools.cache(judge)


def cell_dim(cell: Cell) -> int:
    return sum(iv[1] for box in cell for iv in box)


@functools.cache
def _box_faces(grid: GridSpec) -> dict[Box, tuple[Box, ...]]:
    """Each box to the top and then the bottom face of each unit interval, in axis order."""
    two_g = 2 * grid.G if grid.circle_valued else None
    return {box: tuple(box[:axis] + ((pos, 0),) + box[axis + 1:]
                       for axis, (lo, ln) in enumerate(box) if ln
                       for pos in ((lo + 1) % two_g if two_g else lo + 1, lo))
            for box in grid.boxes()}


def cell_faces(cell: Cell, grid: GridSpec) -> list[Cell]:
    """Codimension-one faces: the top and then the bottom face of the j-th
    unit interval (coordinate-major order) sit at positions 2j and 2j + 1."""
    table = _box_faces(grid)
    return [cell[:n] + (face,) + cell[n + 1:] for n, box in enumerate(cell) for face in table[box]]


class CubicalZpComplex:
    """Shift-closed, face-closed family of certified cells on which the
    cyclic shift acts freely.  The sorted cells are grouped by dimension
    once, at construction.

    The box alphabet, the window constraint and the face relation commute
    with the shift T (faces(T c) = T faces(c)), so they are checked on the
    first cell of each orbit, and `shift_orbits` checks that every cell's
    image is a cell; the faces of a first cell then give those of its whole
    orbit.  p is prime, so an orbit has 1 or p members: the action is free
    once each first cell differs from its image."""

    __slots__ = ("p", "grid", "constraint", "cells", "_cell_set", "_by_dim")

    def __init__(self, p: int, grid: GridSpec, constraint, cells):
        self.p = p
        self.grid = grid
        self.constraint = constraint
        self.cells = tuple(sorted(cells))
        self._cell_set = frozenset(self.cells)
        dims = self._validate()
        by_dim: list[list[Cell]] = [[] for _ in range(max(dims, default=-1) + 1)]
        for cell, k in zip(self.cells, dims):
            by_dim[k].append(cell)
        self._by_dim = tuple(map(tuple, by_dim))

    def _validate(self) -> bytearray:
        """Check the family; return each cell's dimension, taken once per orbit."""
        prime(self.p)
        if len(self._cell_set) != len(self.cells):
            raise ValidationError("duplicate cells")
        boxes = frozenset(self.grid.boxes())
        forbidden = self.constraint.forbidden_test(self.grid)

        def check(cell):
            if len(cell) != self.p or not boxes.issuperset(cell):
                raise ValidationError(f"cell {cell} is not a p-tuple of grid boxes")
            if not satisfies(cell, self.constraint.offsets, forbidden):
                raise ValidationError(f"cell {cell} fails the defining constraint")
            for face in cell_faces(cell, self.grid):
                if face not in self._cell_set:
                    raise ValidationError(f"face {face} of {cell} missing")
            if rotate(cell) == cell:
                raise ValidationError(f"cell {cell} is fixed by the shift")
        dims = bytearray(len(self.cells))
        for orbit in shift_orbits(self.cells, rotate, check, "shift image of {} missing"):
            k = cell_dim(self.cells[orbit[0]])
            for i in orbit:
                dims[i] = k
        return dims

    @property
    def dim(self) -> int:
        return len(self._by_dim) - 1

    def is_empty(self) -> bool:
        return not self.cells

    def cells_of_dim(self, k: int) -> tuple[Cell, ...]:
        return self._by_dim[k] if 0 <= k < len(self._by_dim) else ()

    def __eq__(self, other):
        return (isinstance(other, CubicalZpComplex) and self.p == other.p
                and self.grid == other.grid and self.cells == other.cells)

    def __repr__(self):
        return (f"CubicalZpComplex(p={self.p}, grid={self.grid}, "
                f"cells={len(self.cells)}, dim={self.dim})")


def _enumerate_cells(p: int, grid: GridSpec, constraint, budget: int) -> CubicalZpComplex:
    """The p-periodic words over the grid's boxes that pass the constraint."""
    cells = cyclic_words(grid.boxes(), p, constraint.offsets, constraint.forbidden_test(grid),
                         budget)
    return CubicalZpComplex(p, grid, constraint, cells)


def build_pp_xm(N: int, delta: int | Fraction, m: int, p: int, grid: GridSpec,
                budget: int = DEFAULT_CELL_BUDGET) -> CubicalZpComplex:
    """Certified cells of the space of p-tuples in [0,1]^N whose coordinates
    at cyclic offset m differ by at least delta."""
    if grid.circle_valued:
        raise ValidationError("offset-gap spaces live on the cube grid")
    if whole(N, "N", 1) != grid.N:
        raise ValidationError(f"grid dimension {grid.N} != N={N}")
    if prime(p) > MAX_P or N > MAX_N:
        raise ValidationError(f"instances beyond p={MAX_P}, N={MAX_N} are unsupported")
    return _enumerate_cells(p, grid, OffsetGapConstraint(delta, m), budget)


def build_pp_yz(which: str, p: int, grid: GridSpec,
                budget: int = DEFAULT_CELL_BUDGET) -> CubicalZpComplex:
    """Certified cells of the circle-valued consecutive-pair spaces."""
    if not grid.circle_valued or grid.N != 1:
        raise ValidationError("Y/Z spaces need a circle-valued grid with N=1")
    if prime(p) > MAX_P:
        raise ValidationError(f"instances beyond p={MAX_P} are unsupported")
    return _enumerate_cells(p, grid, CirclePairConstraint(which), budget)


# ---------------------------------------------------------------------------
# Cubical homology.

def cubical_homology(cx: CubicalZpComplex, p_coeff: int) -> HomologyProfile:
    """Betti numbers over F_{p_coeff}, not reduced.  The j-th unit interval
    of a cell contributes (-1)^j * (top face - bottom face), so by the order
    of cell_faces the faces have the signs + - - + repeating."""
    def signed_faces(cell: Cell):
        return zip(cell_faces(cell, cx.grid), itertools.cycle((1, -1, -1, 1)))
    return HomologyProfile(p_coeff, betti_numbers(cx._by_dim, signed_faces, p_coeff, False),
                           False)


# ---------------------------------------------------------------------------
# Triangulation.  Each cell is split along monotone lo-to-hi corner paths
# (one simplex per ordering of its unit axes).  The decomposition is defined
# per cell from its own intervals, restricts to the same rule on faces, and
# is permuted into itself by the cyclic shift, so the action stays simplicial
# and free and the geometric realization is unchanged.  Since it restricts to
# faces, only the maximal cells are walked; `from_simplices` supplies the
# simplices of the lower cells as faces.

def cubical_to_simplicial(cx: CubicalZpComplex) -> FreeZpComplex:
    """The corner-path triangulation, vertices numbered by the sorted 0-cells,
    with the cyclic shift as the action."""
    grid = cx.grid
    if grid.circle_valued and grid.G < 2:
        raise ValidationError("circle triangulation needs G >= 2 (distinct arc endpoints)")
    verts = cx.cells_of_dim(0)
    index = {v: i for i, v in enumerate(verts)}
    faces = {face for cell in cx.cells for face in cell_faces(cell, grid)}
    tops = []
    for cell in cx.cells:
        if cell in faces:
            continue
        low = [tuple((lo, 0) for lo, _ in box) for box in cell]
        raises = [(n, axis, (lo + 1) % (2 * grid.G) if grid.circle_valued else lo + 1)
                  for n, box in enumerate(cell)
                  for axis, (lo, ln) in enumerate(box) if ln == 1]
        for order in itertools.permutations(raises):
            corner = low[:]
            path = [index[tuple(corner)]]
            for n, axis, hi in order:
                corner[n] = corner[n][:axis] + ((hi, 0),) + corner[n][axis + 1:]
                path.append(index[tuple(corner)])
            if len(set(path)) != len(path):
                raise ValidationError("degenerate corner path; refine the grid")
            tops.append(path)
    perm = tuple(index[rotate(v)] for v in verts)
    return FreeZpComplex(SimplicialComplex.from_simplices(len(verts), tops),
                         ZpAction(cx.p, perm))
