from hypothesis import given
from hypothesis import strategies as st

from oracles import dense_fp_rank
from zpindex.fplinalg import betti_numbers, fp_rank


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


class TestClearing:
    def test_filled_triangle(self):
        # Vertices 0..2, edges 01, 02, 12, one triangle: a point.
        d1 = [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]
        d2 = [{0: 1, 1: -1, 2: 1}]
        assert betti_numbers([[{}, {}, {}], d1, d2], 3) == [1, 0, 0]
        # Clearing skips the edge 12 and the augmentation columns of the
        # vertices 1 and 2; the reduced homology still vanishes.
        augmented = [[{0: 1}, {0: 1}, {0: 1}], d1, d2]
        assert betti_numbers(augmented, 5) == [0, 0, 0]
