import copy
import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dense_fp_rank
from zpindex import cli, fplinalg
from zpindex.cubical import GridSpec, build_pp_xm, build_pp_yz, cubical_homology
from zpindex.errors import ValidationError
from zpindex.fplinalg import betti_numbers, fp_rank
from zpindex.simplicial import barycentric_subdivide, e_n_zp, homology


@st.composite
def sparse_matrices(draw):
    """(p, n_rows, columns): up to 12 sparse integer columns on at most 8
    rows, with no chain-complex structure; entries may vanish mod p."""
    p = draw(st.sampled_from([2, 3, 5]))
    n_rows = draw(st.integers(1, 8))
    entry = st.tuples(st.integers(0, n_rows - 1), st.integers(-6, 6))
    columns = draw(st.lists(st.lists(entry, max_size=5).map(dict), max_size=12))
    return p, n_rows, columns


def dense_rows(n_rows, columns):
    return [[col.get(r, 0) for col in columns] for r in range(n_rows)]


class TestRankProperties:
    @given(sparse_matrices())
    def test_rank_matches_dense_elimination(self, matrix):
        p, n_rows, columns = matrix
        assert fp_rank(columns, p) == dense_fp_rank(dense_rows(n_rows, columns), p)

    @given(sparse_matrices())
    def test_pivot_rows_name_independent_rows(self, matrix):
        # One pivot row per reduced column, and those rows alone already
        # carry the full rank.
        p, n_rows, columns = matrix
        pivot_rows: set[int] = set()
        rank = fp_rank(columns, p, pivot_rows)
        assert len(pivot_rows) == rank
        rows = dense_rows(n_rows, columns)
        assert dense_fp_rank([rows[r] for r in sorted(pivot_rows)], p) == rank


class TestRankContract:
    """A column becomes a pivot as given only when its lowest entry is
    nonzero mod p and no earlier column holds that row."""

    def test_lowest_entry_vanishing_mod_p(self):
        pivot_rows: set[int] = set()
        assert fp_rank([{2: 3, 0: 1}], 3, pivot_rows) == 1
        assert pivot_rows == {0}

    def test_lowest_row_already_a_pivot(self):
        pivot_rows: set[int] = set()
        assert fp_rank([{0: 1, 1: -1}, {1: 2}], 3, pivot_rows) == 2
        assert pivot_rows == {0, 1}

    @given(sparse_matrices())
    def test_columns_left_unchanged(self, matrix):
        p, _, columns = matrix
        before = copy.deepcopy(columns)
        fp_rank(columns, p, set())
        assert columns == before

    @given(sparse_matrices())
    def test_tuple_keys_give_the_same_rank(self, matrix):
        # Keys that sort in another order than the ints they stand for.
        p, _, columns = matrix
        keyed = [{((r * 5) % 8, r): c for r, c in col.items()} for col in columns]
        assert fp_rank(keyed, p) == fp_rank(columns, p)


class TestClearing:
    def test_filled_triangle(self):
        # Vertices 0..2, edges 01, 02, 12, one triangle: a point.
        by_dim = [[(0,), (1,), (2,)], [(0, 1), (0, 2), (1, 2)], [(0, 1, 2)]]
        faces = {(0, 1): [((0,), -1), ((1,), 1)], (0, 2): [((0,), -1), ((2,), 1)],
                 (1, 2): [((1,), -1), ((2,), 1)],
                 (0, 1, 2): [((0, 1), 1), ((0, 2), -1), ((1, 2), 1)]}
        assert betti_numbers(by_dim, faces.get, 3, False) == (1, 0, 0)
        # Clearing skips the edge 12 and the augmentation columns of the
        # vertices 1 and 2; the reduced homology still vanishes.
        assert betti_numbers(by_dim, faces.get, 5, True) == (0, 0, 0)


FRONT_ENDS = {
    "E_2(p=3) reduced": lambda: homology(e_n_zp(2, 3).complex, 3),
    "E_2(p=2) sd1 unreduced": lambda: homology(
        barycentric_subdivide(e_n_zp(2, 2)).complex, 2, reduced=False),
    "X_1(N=2, p=2, G=2)": lambda: cubical_homology(
        build_pp_xm(2, Fraction(1, 2), 1, 2, GridSpec(2, 2)), 2),
    "Z(p=3, G=2)": lambda: cubical_homology(
        build_pp_yz("Z", 3, GridSpec(1, 2, circle_valued=True)), 3),
}


def counting_rank(monkeypatch):
    """Patches zpindex.fplinalg.fp_rank, as the benchmark's rank probe does;
    the returned list gets (column count, rank) of every call."""
    handed = []
    fp_rank = fplinalg.fp_rank

    def counted(columns, p, pivot_rows=None):
        rank = fp_rank(columns, p, pivot_rows)
        handed.append((len(columns), rank))
        return rank
    monkeypatch.setattr(fplinalg, "fp_rank", counted)
    return handed


class TestDriver:
    @pytest.mark.parametrize("name", FRONT_ENDS)
    def test_builds_only_the_columns_it_reduces(self, name, driver_calls, monkeypatch):
        # One rank call per degree, from the top down.  Clearing leaves out
        # one cell per rank of the degree above, and in each degree >= 1 the
        # face rule is asked once per column handed to fp_rank, so no
        # cleared column is built.
        handed = counting_rank(monkeypatch)
        FRONT_ENDS[name]()
        (call,) = driver_calls
        by_dim = call["by_dim"]
        degree = {cell: k for k, cells in enumerate(by_dim) for cell in cells}
        asked = [0] * len(by_dim)
        for cell in call["asked"]:
            asked[degree[cell]] += 1
        columns, ranks = zip(*handed[::-1])
        assert len(columns) == len(by_dim)
        assert list(columns) == [len(cells) - rank for cells, rank in zip(by_dim, ranks[1:] + (0,))]
        assert asked[1:] == list(columns[1:])
        assert any(ranks[1:])

    @pytest.mark.parametrize("name", FRONT_ENDS)
    def test_levels_increase_and_faces_lie_below(self, name, driver_calls):
        # The rows are keyed by the faces themselves: each level the driver
        # gets is strictly increasing, and every face key of a k-cell is a
        # cell of level k - 1.
        FRONT_ENDS[name]()
        (call,) = driver_calls
        by_dim, signed_faces = call["by_dim"], call["signed_faces"]
        assert all(a < b for level in by_dim for a, b in itertools.pairwise(level))
        for below, level in zip(by_dim, by_dim[1:]):
            below = set(below)
            assert all(face in below for cell in level for face, _ in signed_faces(cell))

    def test_rank_probe_sees_both_front_ends(self, monkeypatch):
        # The benchmark's fplinalg.rank probe patches this module attribute;
        # the driver must look it up there at call time.
        handed = counting_rank(monkeypatch)
        x = e_n_zp(2, 2).complex
        cli.homology(x, 2)
        assert len(handed) == x.dim + 1
        cx = build_pp_xm(1, Fraction(1, 3), 1, 3, GridSpec(1, 3))
        cli.cubical_homology(cx, 3)
        assert len(handed) == x.dim + 1 + cx.dim + 1

    def test_non_prime_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            betti_numbers([[(0,)]], lambda cell: (), 4, False)
