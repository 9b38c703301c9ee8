import functools
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oracles import (
    AnyCell,
    brute_force_cells,
    brute_force_triangulation,
    cell_family_ok,
    cells_shift_closed_and_free,
    circle_cell_ok,
    circle_pair_ok,
    circle_window_ok,
    cube_tuple_ok,
    cube_faces,
    cubical_betti_by_elimination,
    face_closure,
    grid_intervals,
    relabel,
    xm_cell_ok,
    xm_window_ok,
)
from zpindex import errors
from zpindex.certificates import ambient_sphere_bound, coindex_lower, index_upper
from zpindex.cubical import (
    CirclePairConstraint,
    CubicalZpComplex,
    GridSpec,
    OffsetGapConstraint,
    build_pp_xm,
    build_pp_yz,
    cubical_homology,
    cubical_to_simplicial,
    decode,
    encode,
)
from zpindex.errors import BudgetExceeded, ValidationError
from zpindex.simplicial import e_n_zp, homology, join_power, make_discrete_zp, subdivision_size
from zpindex.subshifts import each_cyclic_word, rotate


def vertex_values(cell, grid):
    """Coordinates of a vertex cell as Fractions (value space)."""
    return tuple(tuple(Fraction(lo, grid.G) for lo, _ in box) for box in cell)


def tuples(cx, codes=None):
    """The complex's cells (or the given codes), decoded to tuples of boxes."""
    return [decode(code, cx.p, cx.grid) for code in (cx.cells if codes is None else codes)]


def coded(cells, grid):
    return [encode(cell, grid) for cell in cells]


def tuple_dim(cell):
    return sum(ln for box in cell for _, ln in box)


class TestBuildXm:
    def test_p2_grid4_vertex_set_matches_direct_enumeration(self):
        grid = GridSpec(1, 4)
        cx = build_pp_xm(1, Fraction(3, 5), 1, 2, grid)
        got = {tuple(box[0][0] for box in cell) for cell in tuples(cx, cx.by_dim[0])}
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
                assert (encode(cell, grid) in cx.cells) == lo_ok
                count += lo_ok
        assert count == len(cx.cells)

    def test_two_components(self):
        cx = build_pp_xm(1, Fraction(3, 5), 1, 2, GridSpec(1, 4))
        assert cubical_homology(cx, 2).betti == (2, 0)

    def test_infeasible_delta_gives_empty(self):
        cx = build_pp_xm(1, Fraction(2), 1, 2, GridSpec(1, 4))
        assert not cx.cells
        assert cubical_homology(cx, 2).betti == ()

    def test_p3_nonempty_with_ambient_bound(self):
        cx = build_pp_xm(1, Fraction(3, 10), 1, 3, GridSpec(1, 6))
        assert cx.cells
        tri = cubical_to_simplicial(cx)
        lo = coindex_lower(tri, 0)
        up = ambient_sphere_bound(cx)
        assert lo.kind == "map_witness" and up.value == 1
        assert up.space == lo.space

    def test_monotone_in_delta(self):
        grid = GridSpec(1, 4)
        small = build_pp_xm(1, Fraction(1, 4), 1, 2, grid)
        large = build_pp_xm(1, Fraction(1, 2), 1, 2, grid)
        assert set(large.cells) <= set(small.cells)

    def test_monotone_in_grid_refinement(self):
        # each coarse included cell's points are covered by fine included cells
        coarse = build_pp_xm(1, Fraction(1, 2), 1, 2, GridSpec(1, 2))
        fine = build_pp_xm(1, Fraction(1, 2), 1, 2, GridSpec(1, 4))
        fine_vertices = {tuple(box[0][0] for box in cell)
                         for cell in tuples(fine, fine.by_dim[0])}
        for cell in tuples(coarse, coarse.by_dim[0]):
            doubled = tuple(2 * box[0][0] for box in cell)
            assert doubled in fine_vertices

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            build_pp_xm(1, Fraction(1, 2), 1, 5, GridSpec(1, 6), budget=100)

    def test_refused_budget_builds_no_alphabet(self):
        # 201^2 boxes: building the alphabet and the enumerator's tables
        # first took 115.9 MB; no larger grid is tried, since a wrong check
        # would grow quadratically with it
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as raised:
                build_pp_xm(2, Fraction(1, 2), 1, 3, GridSpec(2, 100), budget=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert raised.value.count == 40_401
        assert peak < 2 * 1024 ** 2

    def test_large_period_is_bounded_by_the_cell_budget(self):
        # no cap on p or N: the enumeration budget alone decides
        assert len(build_pp_xm(1, Fraction(1, 2), 1, 11, GridSpec(1, 2)).cells) == 9_438
        with pytest.raises(BudgetExceeded):
            build_pp_xm(1, Fraction(1, 3), 1, 11, GridSpec(1, 3))

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
        cells = tuples(cx)
        for _ in range(1000):
            cell = cells[rng.randrange(len(cells))]
            vals = self.sample_in_cell(cell, grid, rng)
            assert cube_tuple_ok(vals, delta, m)

    @pytest.mark.parametrize("kind,p,G", [("Z", 2, 4), ("Z", 3, 2), ("Y", 2, 2)])
    def test_circle_samples(self, kind, p, G):
        grid = GridSpec(1, G, circle_valued=True)
        cx = build_pp_yz(kind, p, grid)
        rng = random.Random(42)
        cells = tuples(cx)
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
        assert all(tuple_dim(c) == 0 for c in tuples(cx))
        got = {tuple(box[0][0] for box in c) for c in tuples(cx)}
        assert got == {(0, 2), (1, 3), (2, 0), (3, 1)}

    def test_z_contains_antipodal_vertex(self):
        cx = build_pp_yz("Z", 2, GridSpec(1, 4, circle_valued=True))
        cell = (((0, 0),), ((4, 0),))  # values 0 and 1: both distances equal 1
        assert encode(cell, cx.grid) in cx.cells

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
        cx = CubicalZpComplex(2, grid, constraint, coded(cells, grid))
        assert cubical_homology(cx, 2).betti == (2,)

    def test_hollow_square_ring(self):
        # perimeter of the square [0,1] x [3,4] (four edges and four corners)
        # and its swap image: two disjoint circles
        grid = GridSpec(1, 4)
        ring = [
            (((0, 1),), ((3, 0),)), (((0, 1),), ((4, 0),)),
            (((0, 0),), ((3, 1),)), (((1, 0),), ((3, 1),)),
        ]
        ring += [rotate(c) for c in ring]
        cx = CubicalZpComplex(2, grid, OffsetGapConstraint(Fraction(1, 2), 1),
                              coded(face_closure(ring, 4, False), grid))
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

    def test_boundary_squares_to_zero(self, driver_calls):
        # The signed-face rule that cubical_homology hands to the driver,
        # applied twice, cancels in every degree; below degree 1 the second
        # map is the augmentation, so an edge's two face signs sum to zero.
        for cx in (build_pp_yz("Z", 3, GridSpec(1, 2, circle_valued=True)),
                   build_pp_xm(2, Fraction(1, 2), 1, 2, GridSpec(2, 2))):
            cubical_homology(cx, 2)
            signed_faces = driver_calls[-1]["signed_faces"]
            for k in range(1, cx.dim + 1):
                for cell in cx.by_dim[k]:
                    acc: dict = {}
                    for face, sign in signed_faces(cell):
                        for lower, lower_sign in (signed_faces(face) if k > 1 else [((), 1)]):
                            acc[lower] = acc.get(lower, 0) + sign * lower_sign
                    assert all(v == 0 for v in acc.values())


class TestTriangulation:
    def test_single_square_splits_into_two_triangles(self):
        # the square and its swap image: two disjoint squares
        grid = GridSpec(1, 4)
        square = (((0, 1),), ((3, 1),))
        cx = CubicalZpComplex(2, grid, OffsetGapConstraint(Fraction(1, 2), 1),
                              coded(face_closure([square, rotate(square)], 4, False), grid))
        tri = cubical_to_simplicial(cx).complex
        assert tri.vertex_count == 8
        assert tri.f_vector() == (8, 10, 4)
        assert homology(tri, 2, reduced=False).betti == (2, 0, 0)

    def test_two_cells_exist_and_triangulate(self):
        grid = GridSpec(1, 4)
        cx = build_pp_xm(1, Fraction(1, 2), 1, 2, grid)
        assert any(tuple_dim(c) == 2 for c in tuples(cx))
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

    @pytest.mark.parametrize("build,simplices", [
        (lambda: build_pp_xm(2, Fraction(1, 2), 1, 3, GridSpec(2, 2)), 20_208),
        (lambda: build_pp_xm(1, Fraction(1, 4), 1, 5, GridSpec(1, 4)), 24_210),
        (lambda: build_pp_yz("Z", 3, GridSpec(1, 3, circle_valued=True)), 1_092),
        (lambda: build_pp_yz("Z", 5, GridSpec(1, 2, circle_valued=True)), 127_240),
    ], ids=["x1-n2p3g2", "x1-n1p5g4", "z-p3g3", "z-p5g2"])
    def test_size_predicted_from_cell_counts(self, monkeypatch, build, simplices):
        # a k-cell holds one simplex per ordered set partition of its k axes
        cx = build()
        f_vector = list(map(len, cx.by_dim))
        assert f_vector[0] + subdivision_size(f_vector[1:]) == simplices
        monkeypatch.setattr(errors, "DEFAULT_CELL_BUDGET", simplices - 1)
        with monkeypatch.context() as begun:
            begun.setattr(CubicalZpComplex, "faces", lambda *_: pytest.fail("built"))
            with pytest.raises(BudgetExceeded) as raised:
                cubical_to_simplicial(cx)
        assert raised.value.count == simplices
        monkeypatch.setattr(errors, "DEFAULT_CELL_BUDGET", simplices)
        assert sum(cubical_to_simplicial(cx).complex.f_vector()) == simplices


class TestTriangulationProperties:
    """The triangulation equals the corner paths of every cell, each corner
    built from scratch, closed by all subsets."""

    @staticmethod
    def assert_matches_oracle(cx):
        tri = cubical_to_simplicial(cx)
        simplices, perm = brute_force_triangulation(tuples(cx), cx.grid.G, cx.grid.circle_valued)
        assert tri.complex.vertex_count == len(perm)
        assert set(tri.complex.simplices()) == simplices
        assert tri.action.perm == perm

    @settings(max_examples=40)
    @given(st.integers(1, 2), st.sampled_from([2, 3]), st.integers(1, 3), st.integers(1, 2),
           st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
    def test_xm_matches_brute_force(self, N, p, G, m, delta):
        assume((N, p, G) != (2, 3, 3))  # 56,064 cells: too large for the oracle
        self.assert_matches_oracle(build_pp_xm(N, delta, m, p, GridSpec(N, G)))

    @settings(max_examples=20)
    @given(st.sampled_from(["Y", "Z"]), st.sampled_from([2, 3, 5]), st.integers(2, 4))
    def test_yz_matches_brute_force(self, kind, p, G):
        assume((kind, p) != ("Z", 5))  # 10,760 cells and more: too large for the oracle
        self.assert_matches_oracle(build_pp_yz(kind, p, GridSpec(1, G, circle_valued=True)))


class TestShiftStructure:
    def test_closed_and_free(self):
        cx = build_pp_xm(1, Fraction(1, 3), 2, 3, GridSpec(1, 3))
        cells = set(tuples(cx))
        for cell in cells:
            for a in range(1, 3):
                image = rotate(cell, a)
                assert image in cells and image != cell


class TestIntegerArguments:
    """Sizes, offsets, dimensions, copy counts and primes must be ints, delta
    an int or a Fraction, and the circle flag a bool: True and 2.0 are
    refused, never taken as 1 and 2."""

    @pytest.mark.parametrize("call", [
        lambda: GridSpec(True, 2),
        lambda: GridSpec(1, True),
        lambda: GridSpec(2, 2.0),
        lambda: GridSpec(1, 2, circle_valued="yes"),
        lambda: OffsetGapConstraint(Fraction(1, 2), True),
        lambda: build_pp_xm(1, Fraction(1, 2), 1.0, 3, GridSpec(1, 2)),
        lambda: build_pp_xm(True, Fraction(1, 2), 1, 3, GridSpec(1, 2)),
        lambda: e_n_zp(True, 2),
        lambda: e_n_zp(1.0, 2),
        lambda: join_power(e_n_zp(0, 2), True),
        lambda: join_power(e_n_zp(0, 2), 2.0),
        lambda: index_upper(e_n_zp(1, 2), 1.0),
        lambda: coindex_lower(e_n_zp(1, 2), 1.0),
        lambda: e_n_zp(1, 2.0),
        lambda: make_discrete_zp(2.0),
        lambda: homology(e_n_zp(1, 2).complex, 2.0),
        lambda: build_pp_xm(1, 0.3, 1, 3, GridSpec(1, 3)),
        lambda: build_pp_xm(1, True, 1, 3, GridSpec(1, 3)),
        lambda: OffsetGapConstraint(0.5, 1),
        lambda: OffsetGapConstraint(True, 1),
    ], ids=["grid-bool-N", "grid-bool-G", "grid-float-G", "grid-string-circle", "offset-bool",
            "xm-float-m", "xm-bool-N", "enzp-bool-n", "enzp-float-n", "join-power-bool",
            "join-power-float", "index-upper-float", "coindex-lower-float", "enzp-float-p",
            "discrete-float-p", "homology-float-p", "xm-float-delta", "xm-bool-delta",
            "offset-float-delta", "offset-bool-delta"])
    def test_refused(self, call):
        with pytest.raises(ValidationError):
            call()


class TestDeskScaleLinearGrowth:
    @pytest.mark.parametrize("p,G,delta", [(2, 4, Fraction(3, 5)),
                                           (3, 6, Fraction(3, 10)),
                                           (5, 3, Fraction(1, 3))])
    def test_ambient_bound_at_most_p_minus_2(self, p, G, delta):
        cx = build_pp_xm(1, delta, 1, p, GridSpec(1, G))
        assert cx.cells
        cert = ambient_sphere_bound(cx)
        assert cert.value <= p - 2


class TestEnumerationProperties:
    """The built cell set equals brute force over every candidate cell."""

    @settings(max_examples=40)
    @given(st.integers(1, 2), st.sampled_from([2, 3, 5]), st.integers(1, 3),
           st.integers(1, 3), st.sampled_from([Fraction(1, 4), Fraction(1, 3),
                                               Fraction(1, 2), Fraction(3, 5), Fraction(1)]))
    def test_xm_matches_brute_force(self, N, p, G, m, delta):
        assume((2 * G + 1) ** (p * N) <= 5000)
        cx = build_pp_xm(N, delta, m, p, GridSpec(N, G))
        expected = brute_force_cells(p, N, G, False, lambda c: xm_cell_ok(c, G, delta, m))
        assert tuples(cx) == sorted(expected)

    @settings(max_examples=30)
    @given(st.sampled_from(["Y", "Z"]), st.sampled_from([2, 3, 5]), st.integers(1, 3))
    def test_yz_matches_brute_force(self, kind, p, G):
        assume((4 * G) ** p <= 5000)
        cx = build_pp_yz(kind, p, GridSpec(1, G, circle_valued=True))
        expected = brute_force_cells(p, 1, G, True, lambda c: circle_cell_ok(c, G, kind))
        assert tuples(cx) == sorted(expected)


class TestValidationProperties:
    @settings(max_examples=100)
    @given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.data())
    def test_generator_check_matches_all_powers(self, p, G, data):
        grid = GridSpec(1, G)
        boxes = st.sampled_from([(iv,) for iv in grid.axis_intervals()])
        seeds = data.draw(st.lists(st.tuples(*[boxes] * p), min_size=1, max_size=3))
        cells = set()
        for cell in seeds:
            powers = data.draw(st.sets(st.integers(0, p - 1)))
            cells.update(rotate(cell, a) for a in powers | {0})
        cells = face_closure(cells, G, False)
        try:
            CubicalZpComplex(p, grid, AnyCell(), coded(cells, grid))
            accepted = True
        except ValidationError as exc:
            assert "shift" in str(exc)
            accepted = False
        assert accepted == cells_shift_closed_and_free(cells)


# (N, p, G, m, delta) of each admissible X_m: at most 5,000 candidate cells
# ((2G+1)^(pN)), G <= 4, m prime to p.
XM_PARAMS = [(N, p, G, m, delta) for N, p, G, m, delta in itertools.product(
                 (1, 2), (2, 3, 5), (1, 2, 3, 4), (1, 2, 3),
                 (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)))
             if (2 * G + 1) ** (p * N) <= 5000 and m % p]


CIRCLE_PARAMS = [(p, G) for p, G in itertools.product((2, 3, 5), (1, 2, 3, 4))
                 if (4 * G) ** p <= 5000]
ADMISSIBLE_GRIDS = list(dict.fromkeys(
    [(p, GridSpec(1, G, circle_valued=True)) for p, G in CIRCLE_PARAMS]
    + [(p, GridSpec(N, G)) for N, p, G, _, _ in XM_PARAMS]))


@functools.cache
def admissible():
    """(complex, G, circle_valued) for each distinct X_m, Y or Z complex with
    G <= 4 and at most 5,000 candidate cells ((4G)^p on the circle,
    (2G+1)^(pN) on the cube), X_m with m prime to p.  Built when first
    drawn, so that a faulty judge fails the tests that draw them, not the
    collection of the module."""
    found = {}
    for kind, (p, G) in itertools.product("YZ", CIRCLE_PARAMS):
        cx = build_pp_yz(kind, p, GridSpec(1, G, circle_valued=True))
        found.setdefault((p, cx.grid, cx.cells), (cx, G, True))
    for N, p, G, m, delta in XM_PARAMS:
        cx = build_pp_xm(N, delta, m, p, GridSpec(N, G))
        found.setdefault((p, cx.grid, cx.cells), (cx, G, False))
    return sorted(found.values(), key=lambda entry: len(entry[0].cells))


@st.composite
def small_complexes(draw, max_cells=5000):
    """(complex, G, circle_valued): an admissible complex of at most
    max_cells cells, three draws in four one of 50 cells or more."""
    fits = [entry for entry in admissible() if len(entry[0].cells) <= max_cells]
    large = draw(st.integers(0, 3)) > 0
    entry = draw(st.sampled_from([e for e in fits if (len(e[0].cells) >= 50) == large]))
    size = len(entry[0].cells)
    event("cells: " + ("0" if not size else "1-49" if size < 50 else "50-399" if size < 400
                       else "400-1500" if size <= 1500 else "over 1500"))
    return entry


class TestRelabel:
    """For p not dividing m, relabelling by n -> l*n (l*m = 1 mod p) carries
    X_1 onto X_m cell by cell and turns the shift into its m-th power."""

    @staticmethod
    def assert_relabelled(N, p, G, m, delta):
        l = pow(m, -1, p)
        one = build_pp_xm(N, delta, 1, p, GridSpec(N, G))
        offset_m = build_pp_xm(N, delta, m, p, GridSpec(N, G))
        assert {relabel(cell, l) for cell in tuples(one)} == set(tuples(offset_m))
        for cell in tuples(one):
            assert relabel(rotate(cell), l) == rotate(relabel(cell, l), m)
        assert cubical_homology(one, p).betti == cubical_homology(offset_m, p).betti

    @settings(max_examples=40)
    @given(st.sampled_from([params for params in XM_PARAMS if params[3] > 1]))
    def test_relabelled_offset_one_is_offset_m(self, params):
        self.assert_relabelled(*params)

    @pytest.mark.parametrize("p,m,l", [(5, 2, 3), (3, 2, 2)])
    def test_isomorphism_verified(self, p, m, l):
        """Past the property's 5,000 candidate cells at p = 5."""
        assert l * m % p == 1
        self.assert_relabelled(1, p, 3, m, Fraction(1, 3))

    def test_coindex_agrees_across_relabel(self):
        one = build_pp_xm(1, Fraction(1, 3), 1, 3, GridSpec(1, 3))
        offset_m = build_pp_xm(1, Fraction(1, 3), 2, 3, GridSpec(1, 3))
        for n in (0, 1):
            a = coindex_lower(cubical_to_simplicial(one), n)
            b = coindex_lower(cubical_to_simplicial(offset_m), n)
            assert (a.kind, a.value) == (b.kind, b.value)


class TestHomologyProperties:
    """Betti numbers with clearing equal dense elimination over every column."""

    @settings(max_examples=40)
    @given(small_complexes(max_cells=400), st.sampled_from([2, 3, 5]))
    def test_matches_dense_elimination(self, complex_grid, coeff):
        cx, G, circle_valued = complex_grid
        oracle = cubical_betti_by_elimination(tuples(cx), G, circle_valued, coeff)
        assert cubical_homology(cx, coeff).betti == tuple(oracle)


class TestFaces:
    @settings(max_examples=40)
    @given(small_complexes(max_cells=1500))
    def test_top_then_bottom_of_each_unit_interval(self, complex_grid):
        """The oracle lists the bottom and then the top face of each unit
        interval; the library the top and then the bottom."""
        cx, G, circle_valued = complex_grid
        for code in cx.cells:
            oracle = cube_faces(decode(code, cx.p, cx.grid), G, circle_valued)
            swapped = [face for bottom, top in zip(oracle[::2], oracle[1::2])
                       for face in (top, bottom)]
            assert tuples(cx, cx.faces(code)) == swapped

    @pytest.mark.parametrize("grid", [GridSpec(2, 3), GridSpec(1, 3, circle_valued=True)])
    def test_sorted_alphabet_gives_sorted_cells(self, grid):
        boxes = grid.boxes()
        assert boxes == sorted(boxes)
        constraint = (CirclePairConstraint("Z") if grid.circle_valued
                      else OffsetGapConstraint(Fraction(1, 3), 1))
        words = list(each_cyclic_word(range(len(boxes)), 3, constraint.offsets,
                                       constraint.forbidden_test(grid), 10 ** 7))
        cells = [tuple(boxes[k] for k in word) for word in words]
        assert cells == sorted(cells) and cells


class TestCodes:
    """A code's base-B digits are its boxes' indices, position 0 the most
    significant: codes and tuples of boxes carry the same cells, in the same
    order, with the digit rotation as the shift."""

    @settings(max_examples=60)
    @given(st.sampled_from(ADMISSIBLE_GRIDS), st.data())
    def test_round_trip_and_order(self, p_grid, data):
        p, grid = p_grid
        box = st.sampled_from(grid.boxes())
        cells = data.draw(st.lists(st.tuples(*[box] * p), min_size=1, max_size=30))
        codes = coded(cells, grid)
        assert [decode(code, p, grid) for code in codes] == cells
        assert [decode(code, p, grid) for code in sorted(codes)] == sorted(cells)
        assert all(0 <= code < len(grid.boxes()) ** p for code in codes)

    @settings(max_examples=40)
    @given(small_complexes(max_cells=1500))
    def test_cells_and_shift_match_tuples(self, complex_grid):
        cx = complex_grid[0]
        cells = tuples(cx)
        assert cells == sorted(cells)
        assert coded(cells, cx.grid) == list(cx.cells)
        assert tuples(cx, map(cx.shift, cx.cells)) == list(map(rotate, cells))

    def test_code_past_63_bits_is_exact(self):
        """Built directly: 9,261 boxes at p = 7 give codes up to 9,261^7 > 2^63."""
        p, grid = 7, GridSpec(3, 10)
        vertices = [box for box in grid.boxes() if all(ln == 0 for _, ln in box)]
        cell = tuple(vertices[-1 - 97 * k] for k in range(p))
        code = encode(cell, grid)
        assert code > 2 ** 63 and decode(code, p, grid) == cell
        orbit = [rotate(cell, a) for a in range(p)]
        cx = CubicalZpComplex(p, grid, AnyCell(), coded(orbit, grid))  # 0-cells: no faces
        assert tuples(cx) == sorted(orbit) and cx.by_dim == (cx.cells,)
        assert tuples(cx, map(cx.shift, cx.cells)) == [rotate(c) for c in sorted(orbit)]


class TestDimensionGroups:
    @settings(max_examples=40)
    @given(small_complexes())
    def test_groups_match_filter(self, complex_grid):
        cx = complex_grid[0]
        assert cx.dim == max(map(tuple_dim, tuples(cx)), default=-1)
        assert cx.by_dim == tuple(tuple(c for c in cx.cells
                                        if tuple_dim(decode(c, cx.p, cx.grid)) == k)
                                  for k in range(cx.dim + 1))

    def test_empty(self):
        cx = build_pp_xm(1, Fraction(2), 1, 2, GridSpec(1, 2))
        assert cx.dim == -1
        assert cx.by_dim == ()


class TestOrbitWalk:
    """The constructor checks one cell per shift orbit and walks the orbit;
    it must refuse exactly the damaged families that a check of every cell
    on its own refuses."""

    @settings(max_examples=80)
    @given(small_complexes(max_cells=1500),
           st.sampled_from(["drop", "drop orbit", "add", "add orbit"]), st.data())
    def test_refused_iff_some_cell_fails(self, complex_grid, damage, data):
        cx, G, circle_valued = complex_grid
        p, constraint = cx.p, cx.constraint
        assume(cx.cells)
        cells = set(tuples(cx))
        if damage.startswith("drop"):
            cell = decode(data.draw(st.sampled_from(cx.cells)), cx.p, cx.grid)
            cells -= {rotate(cell, a) for a in range(p if damage == "drop orbit" else 1)}
        else:
            # a vertex tuple has all its faces, so only its own checks can refuse it
            pool = grid_intervals(G, circle_valued) + [(2 * G if circle_valued else G + 1, 0)]
            if data.draw(st.booleans()):
                pool = [iv for iv in pool if iv[1] == 0]
            intervals = st.sampled_from(pool)
            box = st.tuples(*[intervals] * cx.grid.N)
            cell = data.draw(st.tuples(*[box] * p))
            cells |= {rotate(cell, a) for a in range(p if damage == "add orbit" else 1)}
        # the constructor judges no window, so any cell passes on its own
        if cell_family_ok(cells, p, cx.grid.N, G, circle_valued, lambda c: True):
            built = CubicalZpComplex(p, cx.grid, constraint, coded(cells, cx.grid))
            assert tuples(built) == sorted(cells)
        else:
            # a box off the grid has no code: encoding refuses it
            with pytest.raises(ValidationError):
                CubicalZpComplex(p, cx.grid, constraint, coded(cells, cx.grid))

    def test_duplicate_cell_refused(self):
        # X_1(N=1, p=3, G=2) has 6 cells and Betti numbers (6,)
        cx = build_pp_xm(1, Fraction(1, 2), 1, 3, GridSpec(1, 2))
        assert len(cx.cells) == 6 and cubical_homology(cx, 3).betti == (6,)
        with pytest.raises(ValidationError, match="duplicate"):
            CubicalZpComplex(3, cx.grid, cx.constraint, cx.cells + cx.cells[2:3])

    def test_dropping_last_sorted_orbit_member_refused(self):
        # a top cell's orbit: no face check can see the gap, only the walk
        cx = build_pp_xm(2, Fraction(1, 2), 1, 3, GridSpec(2, 2))
        top = cx.by_dim[cx.dim][0]
        orbit = sorted([top, cx.shift(top), cx.shift(cx.shift(top))])
        with pytest.raises(ValidationError, match="shift image"):
            CubicalZpComplex(3, cx.grid, cx.constraint, set(cx.cells) - {orbit[-1]})


    def test_missing_face_orbit_refused(self):
        # the orbit of a top cell's face goes: shift-closed, but not face-closed
        cx = build_pp_xm(2, Fraction(1, 2), 1, 3, GridSpec(2, 2))
        face = cx.faces(cx.by_dim[cx.dim][0])[0]
        orbit = {face, cx.shift(face), cx.shift(cx.shift(face))}
        with pytest.raises(ValidationError, match="face"):
            CubicalZpComplex(3, cx.grid, cx.constraint, set(cx.cells) - orbit)

    def test_fixed_cell_refused(self):
        grid = GridSpec(1, 2)
        with pytest.raises(ValidationError, match="fixed by the shift"):
            CubicalZpComplex(3, grid, AnyCell(), [encode((((1, 0),),) * 3, grid)])

    def test_forbidden_orbit_accepted(self):
        # a vertex orbit of X_1(N=1, p=3, G=2) with two equal coordinates:
        # the enumerator never lists it, and the constructor, which judges
        # no window, keeps it like any other shift-closed orbit
        cx = build_pp_xm(1, Fraction(1, 2), 1, 3, GridSpec(1, 2))
        cell = (((0, 0),), ((0, 0),), ((2, 0),))
        orbit = coded([rotate(cell, a) for a in range(3)], cx.grid)
        assert set(orbit).isdisjoint(cx.cells)
        built = CubicalZpComplex(3, cx.grid, cx.constraint, list(cx.cells) + orbit)
        assert built.cells == tuple(sorted([*cx.cells, *orbit]))

    @pytest.mark.parametrize("build", [
        lambda: build_pp_xm(2, Fraction(1, 2), 1, 3, GridSpec(2, 2)),
        lambda: build_pp_yz("Z", 3, GridSpec(1, 2, circle_valued=True)),
    ], ids=["x1-n2p3g2", "z-p3g2"])
    def test_constructor_judges_no_window(self, build):
        class Unjudged:
            def forbidden_test(self, grid):
                raise AssertionError("the constructor judged a window")
        cx = build()
        built = CubicalZpComplex(cx.p, cx.grid, Unjudged(), cx.cells)
        assert built.cells == cx.cells and built.by_dim == cx.by_dim

    @pytest.mark.parametrize("code", [-1, 3 ** 3, 1.0, True, "7"])
    def test_non_code_refused(self, code):
        """GridSpec(1, 1) has 3 boxes, so the codes at p = 3 are range(27)."""
        with pytest.raises(ValidationError):
            CubicalZpComplex(3, GridSpec(1, 1), AnyCell(), [code])


class TestWindowTable:
    """Each window's verdict, first judged and then read from the table,
    equals the Fraction re-check of its constraint on the indexed boxes."""

    @pytest.mark.parametrize("N,G", [(1, 1), (1, 3), (2, 2)])
    @pytest.mark.parametrize("delta", [Fraction(1, 3), Fraction(1, 2), Fraction(1)])
    def test_offset_gap(self, N, G, delta):
        grid = GridSpec(N, G)
        forbidden = OffsetGapConstraint(delta, 1).forbidden_test(grid)
        boxes = grid.boxes()
        windows = list(itertools.product(range(len(boxes)), repeat=2))
        for _ in range(2):
            for i, j in windows:
                assert forbidden((i, j)) == (not xm_window_ok(boxes[i], boxes[j], G, delta))

    @pytest.mark.parametrize("G", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["Y", "Z"])
    def test_circle_pair(self, G, kind):
        grid = GridSpec(1, G, circle_valued=True)
        forbidden = CirclePairConstraint(kind).forbidden_test(grid)
        boxes = grid.boxes()
        windows = list(itertools.product(range(len(boxes)), repeat=3))
        for _ in range(2):
            for window in windows:
                a, b, c = (boxes[k] for k in window)
                assert forbidden(window) == (not circle_window_ok(a, b, c, G, kind))

    def test_each_window_judged_once_per_test(self, monkeypatch):
        import zpindex.cubical
        calls = []
        gap = zpindex.cubical._axis_gap
        monkeypatch.setattr(zpindex.cubical, "_axis_gap", lambda a, b: calls.append(1) or gap(a, b))
        grid = GridSpec(2, 2)
        constraint = OffsetGapConstraint(Fraction(1, 2), 1)
        boxes = grid.boxes()
        window = (boxes.index(((0, 0), (0, 1))), boxes.index(((2, 0), (1, 1))))
        first = constraint.forbidden_test(grid)
        assert [first(window) for _ in range(3)] == [False] * 3
        assert len(calls) == 2  # one gap per axis, once
        # A fresh test starts from an empty table.
        assert constraint.forbidden_test(grid)(window) is False
        assert len(calls) == 4
