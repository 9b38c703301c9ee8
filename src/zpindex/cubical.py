"""Equivariant cubical inner approximations of periodic-point spaces.

Points are p-tuples of coordinates in [0,1]^N on a uniform grid (or in the
circle of circumference 2 split into 2G arcs).  A box is an axis-aligned box
whose axis intervals have grid length 0 or 1, and a cell is a p-periodic
word over the alphabet of boxes.  The defining constraint is a window
constraint on such words (pairs at offset m for X_m, consecutive triples for
Y/Z), so the cells are listed by the one enumerator
`subshifts.each_cyclic_word`, run over the box indices.
A window is forbidden unless the constraint holds at every point of its
boxes, certified by exact integer interval arithmetic; the kept set is
therefore automatically closed under faces and under the cyclic shift, and
the shift acts freely on it.  Inner approximations certify map-into lower
bounds only.  An index upper bound on the true space comes from the
ambient-sphere formula, which `certificates.ambient_sphere_bound` derives
from an offset-gap complex in a cube.  Cubical homology is the driver
`fplinalg.betti_numbers` with the cubical face rule of `cubical_homology`.

A cell is one int, its code: its p base-B digits index its boxes among the
B sorted boxes, position 0 the most significant.  Numbers of p digits compare
as their digit strings do, and indices as their boxes, so codes order cells
(and vertices) as their box tuples do.  The shift T is the digit rotation
(c mod B^(p-1))*B + c // B^(p-1); a face turns digit i from box d into its
face f by adding (f - d)*B^(p-1-i).  `encode` and `decode` give box tuples.

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
from operator import mul, sub

from .errors import DEFAULT_CELL_BUDGET, ValidationError, whole, within_budget
from .fplinalg import betti_numbers, prime
from .simplicial import (FreeZpComplex, HomologyProfile, SimplicialComplex, ZpAction,
                         subdivision_size)
from .subshifts import each_cyclic_word

AxisInterval = tuple[int, int]  # (lo, length), length in {0, 1}
Box = tuple[AxisInterval, ...]


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
        """forbidden((i, j)) on box indices: the boxes' squared gap is
        < delta^2, in grid units.  Each distinct window is judged once per
        call (`functools.cache`)."""
        s, t = self.delta.numerator, self.delta.denominator
        threshold, t2 = s * s * grid.G * grid.G, t * t

        def judge(window: tuple[int, int]) -> bool:
            a, b = map(_alphabet(grid)[0].__getitem__, window)
            return t2 * sum(_axis_gap(x, y) ** 2 for x, y in zip(a, b)) < threshold
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
        """forbidden((i, j, k)) on the indices of three consecutive one-axis
        boxes, each distinct window judged once per call."""
        g, two_g = grid.G, 2 * grid.G
        if self.kind == "Z":
            # rho >= 1/2 on an arc pair iff 2*gap >= G in grid units.
            def judge(window: tuple[int, int, int]) -> bool:
                (a,), (b,), (c,) = map(_alphabet(grid)[0].__getitem__, window)
                return (2 * _circle_gap(a, b, two_g) < g
                        and 2 * _circle_gap(b, c, two_g) < g)
        else:
            # Two grid points G arcs apart: an antipodal pair.
            def judge(window: tuple[int, int, int]) -> bool:
                ((x, xl),), ((y, yl),), ((z, zl),) = map(_alphabet(grid)[0].__getitem__, window)
                return not (xl == yl == 0 and (x - y) % two_g == g
                            or yl == zl == 0 and (y - z) % two_g == g)
        return functools.cache(judge)


@functools.cache
def _alphabet(grid: GridSpec) -> tuple[tuple[Box, ...], dict[Box, int], tuple[tuple[int, ...]]]:
    """The sorted boxes, each box's index, and per index the indices of the
    top and then the bottom face of each unit interval, in axis order."""
    boxes = tuple(grid.boxes())
    index = {box: k for k, box in enumerate(boxes)}
    two_g = 2 * grid.G if grid.circle_valued else None
    return boxes, index, tuple(tuple(index[box[:axis] + ((pos, 0),) + box[axis + 1:]]
                                     for axis, (lo, ln) in enumerate(box) if ln
                                     for pos in ((lo + 1) % two_g if two_g else lo + 1, lo))
                               for box in boxes)


def encode(cell, grid: GridSpec) -> int:
    """The code of a tuple of grid boxes."""
    boxes, index, _ = _alphabet(grid)
    if not set(cell) <= index.keys():
        raise ValidationError(f"{cell!r} holds a box off the grid {grid}")
    return functools.reduce(lambda code, box: code * len(boxes) + index[box], cell, 0)


def decode(code: int, p: int, grid: GridSpec) -> tuple[Box, ...]:
    """The p boxes whose indices are the base-B digits of the code."""
    boxes = _alphabet(grid)[0]
    return tuple(boxes[code // len(boxes) ** (p - 1 - i) % len(boxes)] for i in range(p))


class CubicalZpComplex:
    """Shift-closed, face-closed family of cells, held as sorted codes grouped
    by dimension, on which the cyclic shift acts freely.  The faces commute
    with the shift T, which moves digit i + 1 to position i.  So once every
    cell's image is a cell, the faces at position 0 of all cells are those
    at every position, and only they are checked, in one pass over the codes.
    p is prime, so the action is free once no cell is its own image.  The
    window constraint is not judged here: `constraint` records the judge
    that listed the cells (`_enumerate_cells`)."""

    __slots__ = ("p", "grid", "constraint", "cells", "by_dim", "_base", "_lead", "_positions")

    def __init__(self, p: int, grid: GridSpec, constraint, cells):
        self.p, self.grid, self.constraint = prime(p), grid, constraint
        cells = list(cells)
        if set(map(type, cells)) - {int}:
            raise ValidationError("cells must be int codes")
        self.cells = cells = tuple(sorted(cells))
        boxes, _, box_faces = _alphabet(grid)
        base = self._base = len(boxes)
        lead = self._lead = base ** (p - 1)
        # per position from 0: its weight, and per box the code steps to its faces
        self._positions = tuple((w, tuple(tuple((f - d) * w for f in faces)
                                          for d, faces in enumerate(box_faces)))
                                for w in (base ** (p - 1 - i) for i in range(p)))
        if cells and (cells[0] < 0 or cells[-1] >= lead * base):
            raise ValidationError(f"codes must lie in range({base}**{p})")
        present = set(cells)
        if len(present) != len(cells):
            raise ValidationError("duplicate cells")

        def refuse(bad, message: str):
            raise ValidationError(message.format(decode(next(filter(bad, cells)), p, grid)))
        digits = [[code // w % base for code in cells] for w, _ in self._positions]
        first, steps = digits[0], self._positions[0][1]
        images = list(map(sub, map(base.__mul__, cells), map((lead * base - 1).__mul__, first)))
        if any(map(int.__eq__, cells, images)):
            refuse(lambda code: self.shift(code) == code, "cell {} is fixed by the shift")
        first_faces = (code + s for code, d in zip(cells, first) for s in steps[d])
        if not (present.issuperset(images) and present.issuperset(first_faces)):
            refuse(lambda code: not present.issuperset([self.shift(code), *self.faces(code)]),
                   "the shift image or a face of {} is missing")
        box_dims = [len(faces) // 2 for faces in box_faces]
        dims = list(map(sum, zip(*(map(box_dims.__getitem__, column) for column in digits))))
        self.by_dim = tuple(tuple(itertools.compress(cells, map(k.__eq__, dims)))
                            for k in range(max(dims, default=-1) + 1))

    def shift(self, code: int) -> int:
        """T: the digit rotation that moves position 0 to the end."""
        first, rest = divmod(code, self._lead)
        return rest * self._base + first

    def faces(self, code: int) -> list[int]:
        """Codes of the codimension-one faces: the top and then the bottom face
        of the j-th unit interval (position-major, axis order) at 2j, 2j + 1."""
        steps = []
        for w, table in self._positions:
            steps += table[code // w % self._base]
        return list(map(code.__add__, steps))

    @property
    def dim(self) -> int:
        return len(self.by_dim) - 1

    def __repr__(self):
        return (f"CubicalZpComplex(p={self.p}, grid={self.grid}, "
                f"cells={len(self.cells)}, dim={self.dim})")


def _enumerate_cells(p: int, grid: GridSpec, constraint, budget: int) -> CubicalZpComplex:
    """The p-periodic words over the box indices that pass the constraint, as
    codes.  A refused budget builds no boxes: a judged window looks them up."""
    base = len(grid.axis_intervals()) ** grid.N
    weights = [base ** (p - 1 - i) for i in range(p)]
    words = each_cyclic_word(range(base), p, constraint.offsets, constraint.forbidden_test(grid),
                             budget)
    return CubicalZpComplex(p, grid, constraint, [sum(map(mul, word, weights)) for word in words])


def build_pp_xm(N: int, delta: int | Fraction, m: int, p: int, grid: GridSpec,
                budget: int = DEFAULT_CELL_BUDGET) -> CubicalZpComplex:
    """Certified cells of the space of p-tuples in [0,1]^N whose coordinates
    at cyclic offset m differ by at least delta."""
    if grid.circle_valued:
        raise ValidationError("offset-gap spaces live on the cube grid")
    if whole(N, "N", 1) != grid.N:
        raise ValidationError(f"grid dimension {grid.N} != N={N}")
    return _enumerate_cells(prime(p), grid, OffsetGapConstraint(delta, m), budget)


def build_pp_yz(which: str, p: int, grid: GridSpec,
                budget: int = DEFAULT_CELL_BUDGET) -> CubicalZpComplex:
    """Certified cells of the circle-valued consecutive-pair spaces."""
    if not grid.circle_valued or grid.N != 1:
        raise ValidationError("Y/Z spaces need a circle-valued grid with N=1")
    return _enumerate_cells(prime(p), grid, CirclePairConstraint(which), budget)


# ---------------------------------------------------------------------------
# Cubical homology.

def cubical_homology(cx: CubicalZpComplex, p_coeff: int) -> HomologyProfile:
    """Betti numbers over F_{p_coeff}, not reduced, of the sorted codes.  The
    j-th unit interval of a cell contributes (-1)^j * (top face - bottom
    face), so by `CubicalZpComplex.faces` the face signs repeat + - - +."""
    def signed_faces(code: int):
        return zip(cx.faces(code), signs)
    signs = (1, -1, -1, 1) * (cx.dim // 2 + 1)  # one per face of a top cell
    return HomologyProfile(p_coeff, betti_numbers(cx.by_dim, signed_faces, p_coeff, False), False)


# ---------------------------------------------------------------------------
# Triangulation.  Each cell is split along monotone lo-to-hi corner paths
# (one simplex per ordering of its unit axes).  The decomposition is defined
# per cell from its own intervals, restricts to the same rule on faces, and
# is permuted into itself by the cyclic shift, so the action stays simplicial
# and free and the geometric realization is unchanged.  Since it restricts to
# faces, only the maximal cells are walked; `from_simplices` supplies the
# simplices of the lower cells as faces.  Codes add over digits, and box
# indices over interval ranks (mixed radix), so a cell's lowest corner sums
# its steps to its bottom faces, and a bottom-to-top step raises any corner.
# A k-cell holds one simplex per ordered set partition of its k unit axes (a
# chain of corners from low to high), so the size is known before any is built.

def cubical_to_simplicial(cx: CubicalZpComplex) -> FreeZpComplex:
    """The corner-path triangulation, vertices numbered by the sorted 0-cells,
    with the cyclic shift as the action.

    It is a flag complex.  Two corners are adjacent iff one lies above the
    other (in each coordinate, in the order inside a cell) and the cube they
    span is a cell.  Pairwise comparable corners form a chain, and its
    min-max pair is an edge, whose spanning cube is a cell: the chain is a
    corner path of that cell, a simplex."""
    if cx.grid.circle_valued and cx.grid.G < 2:
        raise ValidationError("circle triangulation needs G >= 2 (distinct arc endpoints)")
    f_vector = list(map(len, cx.by_dim))
    within_budget(sum(f_vector[:1]) + subdivision_size(f_vector[1:]), "the triangulation")
    verts = cx.by_dim[0] if cx.cells else ()
    index = {v: i for i, v in enumerate(verts)}
    faces = {face for code in cx.cells for face in cx.faces(code)}
    tops = []
    for code in cx.cells:
        if code not in faces:
            top_bottom = cx.faces(code)
            start = sum(top_bottom[1::2]) - (len(top_bottom) // 2 - 1) * code
            for order in itertools.permutations(map(sub, top_bottom[::2], top_bottom[1::2])):
                tops.append([index[c] for c in itertools.accumulate(order, initial=start)])
    perm = tuple(index[cx.shift(v)] for v in verts)
    return FreeZpComplex(SimplicialComplex.from_simplices(len(verts), tops),
                         ZpAction(cx.p, perm))
