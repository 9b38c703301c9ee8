import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_cells,
    cells_shift_closed_and_free,
    circle_cell_ok,
    circle_pair_ok,
    cube_tuple_ok,
    xm_cell_ok,
)
from zpindex.certificates import ambient_sphere_bound, coindex_lower, index_upper_from_dimension
from zpindex.cubical import (
    CubicalZpComplex,
    GridSpec,
    OffsetGapConstraint,
    build_pp_xm,
    build_pp_yz,
    cell_dim,
    close_cells,
    cubical_homology,
    cubical_to_simplicial,
    relabel_isomorphism,
    shift_cell,
)
from zpindex.errors import BudgetExceeded, ValidationError
from zpindex.simplicial import homology


def vertex_values(cell, grid):
    """Coordinates of a vertex cell as Fractions (value space)."""
    return tuple(tuple(Fraction(lo, grid.G) for lo, _ in box) for box in cell)


class TestBuildXm:
    def test_p2_grid4_vertex_set_matches_direct_enumeration(self):
        grid = GridSpec(1, 4)
        cx = build_pp_xm(1, Fraction(3, 5), 1, 2, grid)
        got = {tuple(box[0][0] for box in cell) for cell in cx.vertex_cells()}
        expected = set()
        for a, b in itertools.product(range(5), repeat=2):
            vals = ((Fraction(a, 4),), (Fraction(b, 4),))
            if cube_tuple_ok(vals, Fraction(3, 5), 1):
                expected.add((a, b))
        assert got == expected
        assert (0, 4) in got and (4, 0) in got  # the points (0,1) and (1,0)

    def test_p2_grid4_all_cells_match_direct_check(self):
        grid = GridSpec(1, 4)
        cx = build_pp_xm(1, Fraction(3, 5), 1, 2, grid)
        # oracle: every candidate cell, via exact box corners
        count = 0
        for c1 in grid.axis_intervals():
            for c2 in grid.axis_intervals():
                lo_ok = min(
                    abs(Fraction(x, 4) - Fraction(y, 4))
                    for x in (c1[0], c1[0] + c1[1])
                    for y in (c2[0], c2[0] + c2[1])
                ) >= Fraction(3, 5)
                cell = (((c1[0], c1[1]),), ((c2[0], c2[1]),))
                assert (cell in cx._cell_set) == lo_ok
                count += lo_ok
        assert count == len(cx.cells)

    def test_two_components(self):
        cx = build_pp_xm(1, Fraction(3, 5), 1, 2, GridSpec(1, 4))
        assert cubical_homology(cx, 2).betti == (2, 0)

    def test_infeasible_delta_gives_empty(self):
        cx = build_pp_xm(1, Fraction(2), 1, 2, GridSpec(1, 4))
        assert cx.is_empty()
        assert cubical_homology(cx, 2).betti == ()

    def test_p3_nonempty_with_ambient_bound(self):
        cx = build_pp_xm(1, Fraction(3, 10), 1, 3, GridSpec(1, 6))
        assert not cx.is_empty()
        tri = cubical_to_simplicial(cx)
        lo = coindex_lower(tri, 0)
        up = ambient_sphere_bound(1, 3, space=lo.space)
        assert lo.kind == "map_witness" and up.value == 1

    def test_monotone_in_delta(self):
        grid = GridSpec(1, 4)
        small = build_pp_xm(1, Fraction(1, 4), 1, 2, grid)
        large = build_pp_xm(1, Fraction(1, 2), 1, 2, grid)
        assert set(large.cells) <= set(small.cells)

    def test_monotone_in_grid_refinement(self):
        # each coarse included cell's points are covered by fine included cells
        coarse = build_pp_xm(1, Fraction(1, 2), 1, 2, GridSpec(1, 2))
        fine = build_pp_xm(1, Fraction(1, 2), 1, 2, GridSpec(1, 4))
        fine_vertices = {tuple(box[0][0] for box in cell) for cell in fine.vertex_cells()}
        for cell in coarse.vertex_cells():
            doubled = tuple(2 * box[0][0] for box in cell)
            assert doubled in fine_vertices

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            build_pp_xm(1, Fraction(1, 2), 1, 5, GridSpec(1, 6), budget=100)

    def test_out_of_scope_sizes_rejected(self):
        with pytest.raises(ValidationError):
            build_pp_xm(1, Fraction(1, 2), 1, 11, GridSpec(1, 2))

    def test_circle_grid_rejected(self):
        with pytest.raises(ValidationError):
            build_pp_xm(1, Fraction(1, 2), 1, 2, GridSpec(1, 2, circle_valued=True))


class TestSoundness:
    """Inner approximation: every point of every included cell satisfies the
    defining constraint, sampled with exact rationals."""

    def sample_in_cell(self, cell, grid, rng):
        coords = []
        for box in cell:
            row = []
            for lo, ln in box:
                t = Fraction(rng.randint(0, 1000), 1000)
                row.append(Fraction(lo, grid.G) + t * Fraction(ln, grid.G))
            coords.append(tuple(row))
        return tuple(coords)

    @pytest.mark.parametrize("p,m,delta,G", [(2, 1, Fraction(3, 5), 4),
                                             (3, 1, Fraction(1, 3), 3),
                                             (3, 2, Fraction(1, 3), 3)])
    def test_cube_samples(self, p, m, delta, G):
        grid = GridSpec(1, G)
        cx = build_pp_xm(1, delta, m, p, grid)
        rng = random.Random(1729)
        cells = list(cx.cells)
        for _ in range(1000):
            cell = cells[rng.randrange(len(cells))]
            vals = self.sample_in_cell(cell, grid, rng)
            assert cube_tuple_ok(vals, delta, m)

    @pytest.mark.parametrize("kind,p,G", [("Z", 2, 4), ("Z", 3, 2), ("Y", 2, 2)])
    def test_circle_samples(self, kind, p, G):
        grid = GridSpec(1, G, circle_valued=True)
        cx = build_pp_yz(kind, p, grid)
        rng = random.Random(42)
        cells = list(cx.cells)
        for _ in range(1000):
            cell = cells[rng.randrange(len(cells))]
            vals = tuple(
                Fraction(box[0][0], grid.G)
                + Fraction(rng.randint(0, 1000), 1000) * Fraction(box[0][1], grid.G)
                for box in cell)
            assert circle_pair_ok(vals, kind)


class TestYZ:
    def test_y_vertices_are_antipodal_pairs(self):
        cx = build_pp_yz("Y", 2, GridSpec(1, 2, circle_valued=True))
        assert all(cell_dim(c) == 0 for c in cx.cells)
        got = {tuple(box[0][0] for box in c) for c in cx.cells}
        assert got == {(0, 2), (1, 3), (2, 0), (3, 1)}

    def test_z_contains_antipodal_vertex(self):
        cx = build_pp_yz("Z", 2, GridSpec(1, 4, circle_valued=True))
        cell = (((0, 0),), ((4, 0),))  # values 0 and 1: both distances equal 1
        assert cell in cx._cell_set

    def test_y_inside_z(self):
        grid = GridSpec(1, 2, circle_valued=True)
        y = build_pp_yz("Y", 2, grid)
        z = build_pp_yz("Z", 2, grid)
        assert set(y.cells) <= set(z.cells)

    def test_z3_records_coindex_bounds(self):
        cx = build_pp_yz("Z", 3, GridSpec(1, 2, circle_valued=True))
        tri = cubical_to_simplicial(cx)
        lo = coindex_lower(tri, 0)
        assert lo.kind == "map_witness"
        deeper = coindex_lower(tri, 1)
        assert deeper.kind in ("map_witness", "exhaustion")

    def test_cube_grid_rejected(self):
        with pytest.raises(ValidationError):
            build_pp_yz("Z", 2, GridSpec(1, 2))


class TestCubicalHomology:
    def test_two_disjoint_vertices(self):
        grid = GridSpec(1, 4)
        constraint = OffsetGapConstraint(Fraction(1), 1)
        cells = [(((0, 0),), ((4, 0),)), (((4, 0),), ((0, 0),))]
        cx = CubicalZpComplex(2, grid, constraint, cells)
        assert cubical_homology(cx, 2).betti == (2,)

    def test_hollow_square_ring(self):
        # perimeter of the square [0,1] x [3,4] (four edges and four corners)
        # and its swap image: two disjoint circles
        from zpindex.cubical import close_cells
        grid = GridSpec(1, 4)
        ring = [
            (((0, 1),), ((3, 0),)), (((0, 1),), ((4, 0),)),
            (((0, 0),), ((3, 1),)), (((1, 0),), ((3, 1),)),
        ]
        ring += [shift_cell(c) for c in ring]
        cx = CubicalZpComplex(2, grid, OffsetGapConstraint(Fraction(1, 2), 1),
                              close_cells(ring, grid))
        prof = cubical_homology(cx, 2)
        assert prof.betti == (2, 2)

    @pytest.mark.parametrize("builder,coeff", [
        (lambda: build_pp_xm(1, Fraction(3, 5), 1, 2, GridSpec(1, 4)), 2),
        (lambda: build_pp_xm(1, Fraction(1, 3), 1, 3, GridSpec(1, 3)), 3),
        (lambda: build_pp_xm(1, Fraction(1, 3), 2, 3, GridSpec(1, 3)), 2),
        (lambda: build_pp_yz("Z", 2, GridSpec(1, 4, circle_valued=True)), 2),
        (lambda: build_pp_yz("Z", 3, GridSpec(1, 2, circle_valued=True)), 3),
    ])
    def test_agrees_with_triangulation(self, builder, coeff):
        cx = builder()
        tri = cubical_to_simplicial(cx)
        assert cubical_homology(cx, coeff).betti == \
            homology(tri.complex, coeff, reduced=False).betti

    def test_boundary_squares_to_zero(self):
        from zpindex.cubical import cubical_boundary_columns
        for cx in (build_pp_yz("Z", 3, GridSpec(1, 2, circle_valued=True)),
                   build_pp_xm(2, Fraction(1, 2), 1, 2, GridSpec(2, 2))):
            for k in range(1, cx.dim + 1):
                cols_k = cubical_boundary_columns(cx, k)
                if k == 1:
                    continue
                cols_km1 = cubical_boundary_columns(cx, k - 1)
                for col in cols_k:
                    acc: dict[int, int] = {}
                    for j, cj in col.items():
                        for i, ci in cols_km1[j].items():
                            acc[i] = acc.get(i, 0) + cj * ci
                    assert all(v == 0 for v in acc.values())


class TestTriangulation:
    def test_single_square_splits_into_two_triangles(self):
        # the square and its swap image: two disjoint squares
        from zpindex.cubical import close_cells, triangulate_cells
        grid = GridSpec(1, 4)
        square = (((0, 1),), ((3, 1),))
        cx = CubicalZpComplex(2, grid, OffsetGapConstraint(Fraction(1, 2), 1),
                              close_cells([square, shift_cell(square)], grid))
        tri, verts = triangulate_cells(cx)
        assert len(verts) == 8
        assert tri.f_vector() == (8, 10, 4)
        assert homology(tri, 2, reduced=False).betti == (2, 0, 0)

    def test_two_cells_exist_and_triangulate(self):
        grid = GridSpec(1, 4)
        cx = build_pp_xm(1, Fraction(1, 2), 1, 2, grid)
        two_cells = [c for c in cx.cells if cell_dim(c) == 2]
        assert two_cells
        tri = cubical_to_simplicial(cx)
        assert tri.complex.dim == 2
        assert homology(tri.complex, 2, reduced=False).betti == \
            cubical_homology(cx, 2).betti

    def test_empty(self):
        cx = build_pp_xm(1, Fraction(2), 1, 2, GridSpec(1, 4))
        tri = cubical_to_simplicial(cx)
        assert tri.is_empty()

    def test_action_free_and_simplicial(self):
        cx = build_pp_xm(1, Fraction(1, 3), 1, 3, GridSpec(1, 3))
        tri = cubical_to_simplicial(cx)
        # constructor validates; re-run explicitly
        from zpindex.simplicial import FreeZpComplex
        FreeZpComplex(tri.complex, tri.action)

    def test_circle_needs_g_at_least_2(self):
        cx = build_pp_yz("Z", 2, GridSpec(1, 1, circle_valued=True))
        with pytest.raises(ValidationError):
            cubical_to_simplicial(cx)


class TestShiftStructure:
    def test_closed_and_free(self):
        cx = build_pp_xm(1, Fraction(1, 3), 2, 3, GridSpec(1, 3))
        cells = set(cx.cells)
        for cell in cx.cells:
            for a in range(1, 3):
                image = shift_cell(cell, a)
                assert image in cells and image != cell


class TestRelabel:
    @pytest.mark.parametrize("p,m,l", [(5, 2, 3), (3, 2, 2)])
    def test_isomorphism_verified(self, p, m, l):
        cx = build_pp_xm(1, Fraction(1, 3), m, p, GridSpec(1, 3))
        pair = relabel_isomorphism(cx, l)
        assert len(pair.offset_one.cells) == len(pair.offset_m.cells)
        # spot-check the defining formulas on every cell
        for cell, image in pair.to_offset_m.items():
            assert image == tuple(cell[(l * n) % p] for n in range(p))
            assert pair.to_offset_one[image] == cell

    def test_identity_offset(self):
        cx = build_pp_xm(1, Fraction(1, 2), 1, 3, GridSpec(1, 2))
        pair = relabel_isomorphism(cx, 1)
        assert all(c == i for c, i in pair.to_offset_m.items())

    def test_coindex_agrees_across_relabel(self):
        cx = build_pp_xm(1, Fraction(1, 3), 2, 3, GridSpec(1, 3))
        pair = relabel_isomorphism(cx, 2)
        for n in (0, 1):
            a = coindex_lower(cubical_to_simplicial(pair.offset_one), n)
            b = coindex_lower(cubical_to_simplicial(pair.offset_m), n)
            assert a.kind == b.kind

    def test_wrong_inverse_rejected(self):
        cx = build_pp_xm(1, Fraction(1, 2), 2, 5, GridSpec(1, 2))
        with pytest.raises(ValidationError):
            relabel_isomorphism(cx, 2)  # 2*2 = 4 != 1 mod 5


class TestDeskScaleLinearGrowth:
    @pytest.mark.parametrize("p,G,delta", [(2, 4, Fraction(3, 5)),
                                           (3, 6, Fraction(3, 10)),
                                           (5, 3, Fraction(1, 3))])
    def test_ambient_bound_at_most_p_minus_2(self, p, G, delta):
        cx = build_pp_xm(1, delta, 1, p, GridSpec(1, G))
        assert not cx.is_empty()
        cert = ambient_sphere_bound(1, p)
        assert cert.value <= p - 2


class TestEnumerationProperties:
    """The built cell set equals brute force over every candidate cell."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.sampled_from([2, 3, 5]), st.integers(1, 3),
           st.integers(1, 3), st.sampled_from([Fraction(1, 4), Fraction(1, 3),
                                               Fraction(1, 2), Fraction(3, 5), Fraction(1)]))
    def test_xm_matches_brute_force(self, N, p, G, m, delta):
        assume((2 * G + 1) ** (p * N) <= 5000)
        cx = build_pp_xm(N, delta, m, p, GridSpec(N, G))
        expected = brute_force_cells(p, N, G, False, lambda c: xm_cell_ok(c, G, delta, m))
        assert list(cx.cells) == sorted(expected)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["Y", "Z"]), st.sampled_from([2, 3, 5]), st.integers(1, 3))
    def test_yz_matches_brute_force(self, kind, p, G):
        assume((4 * G) ** p <= 5000)
        cx = build_pp_yz(kind, p, GridSpec(1, G, circle_valued=True))
        expected = brute_force_cells(p, 1, G, True, lambda c: circle_cell_ok(c, G, kind))
        assert list(cx.cells) == sorted(expected)


class AnyCell:
    """A constraint every cell passes, so that validation turns on the
    shift structure alone."""

    offsets = (0, 1)

    def forbidden_test(self, grid):
        return lambda window: False


class TestValidationProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.data())
    def test_generator_check_matches_all_powers(self, p, G, data):
        grid = GridSpec(1, G)
        boxes = st.sampled_from([(iv,) for iv in grid.axis_intervals()])
        seeds = data.draw(st.lists(st.tuples(*[boxes] * p), min_size=1, max_size=3))
        cells = set()
        for cell in seeds:
            powers = data.draw(st.sets(st.integers(0, p - 1)))
            cells.update(shift_cell(cell, a) for a in powers | {0})
        cells = close_cells(cells, grid)
        try:
            CubicalZpComplex(p, grid, AnyCell(), cells)
            accepted = True
        except ValidationError as exc:
            assert "shift" in str(exc)
            accepted = False
        assert accepted == cells_shift_closed_and_free(cells)
