import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_cyclic, brute_force_periodic
from zpindex.errors import BudgetExceeded, ValidationError
from zpindex.simplicial import homology
from zpindex.subshifts import (
    PeriodicOrbitSet,
    as_free_zp_complex,
    cyclic_words,
    join_periodic_sets,
    join_power,
    make_sigma,
    make_sigma_m,
    odd_period_witness,
    periodic_points,
    periodic_table,
    rotate,
    satisfies,
)

PRIMES = [2, 3, 5, 7, 11, 13]


class TestSigma:
    def test_sigma_m_1_is_sigma(self):
        assert make_sigma_m(1) == make_sigma()

    def test_no_fixed_points(self):
        assert periodic_points(make_sigma(), 1).is_empty()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_counts_against_brute_force(self, n):
        sigma = make_sigma()
        expected = brute_force_periodic(3, 1, sigma.forbidden, n)
        got = periodic_points(sigma, n)
        assert list(got.points) == sorted(expected)
        assert len(got) == 2 ** n + 2 * (-1) ** n

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_form(self, n):
        assert len(periodic_points(make_sigma(), n)) == 2 ** n + 2 * (-1) ** n

    @pytest.mark.parametrize("k", [2, 4])
    def test_general_alphabet_cycle_colorings(self, k):
        # k-colorings of the n-cycle: (k-1)^n + (k-1)(-1)^n
        shift = make_sigma_m(1, alphabet_size=k)
        for n in (3, 4, 5):
            assert len(periodic_points(shift, n)) == (k - 1) ** n + (k - 1) * (-1) ** n

    def test_two_periodic_points(self):
        pts = periodic_points(make_sigma(), 2)
        assert len(pts) == 6
        assert len(pts.orbits()) == 3

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            periodic_points(make_sigma(), 12, budget=50)


class TestSigmaM:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_no_m_periodic_points(self, m):
        assert periodic_points(make_sigma_m(m), m).is_empty()

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_nonempty_for_primes_above_m(self, m):
        for p in PRIMES:
            if p > m:
                assert not periodic_points(make_sigma_m(m), p).is_empty()

    def test_p5_m2_nonempty(self):
        assert not periodic_points(make_sigma_m(2), 5).is_empty()

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 6), (2, 6)])
    def test_against_brute_force(self, m, n):
        shift = make_sigma_m(m)
        expected = brute_force_periodic(3, m, shift.forbidden, n)
        assert list(periodic_points(shift, n).points) == sorted(expected)


class TestOddWitness:
    @pytest.mark.parametrize("m,expected", [(3, (1, 2, 3)), (5, (1, 2, 1, 2, 3)),
                                            (7, (1, 2, 1, 2, 1, 2, 3))])
    def test_construction(self, m, expected):
        word = odd_period_witness(m)
        assert word == expected
        assert satisfies(word, make_sigma().offsets, make_sigma().forbidden.__contains__)
        assert word in periodic_points(make_sigma(), m).points

    @pytest.mark.parametrize("bad", [1, 2, 4, 6])
    def test_rejects_even_or_small(self, bad):
        with pytest.raises(ValidationError):
            odd_period_witness(bad)


class TestFreeness:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_prime_periods_rotate_freely(self, p):
        pts = periodic_points(make_sigma(), p)
        assert pts.rotation_is_free()
        assert all(len(orbit) == p for orbit in pts.orbits())

    def test_orbit_canonical_representatives(self):
        pts = periodic_points(make_sigma(), 3)
        for orbit in pts.orbits():
            assert orbit[0] == min(orbit)

    def test_composite_period_not_free(self):
        pts = periodic_points(make_sigma(), 4)
        assert not pts.rotation_is_free()  # 1212 has orbit size 2


class TestAsComplex:
    def test_p3_two_orbits(self):
        x = as_free_zp_complex(periodic_points(make_sigma(), 3))
        assert x.complex.vertex_count == 6
        assert len(x.vertex_orbits()) == 2

    def test_p2_three_orbits(self):
        x = as_free_zp_complex(periodic_points(make_sigma(), 2))
        assert x.complex.vertex_count == 6
        assert len(x.vertex_orbits()) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            as_free_zp_complex(periodic_points(make_sigma(), 1))

    def test_composite_period_rejected(self):
        with pytest.raises(ValidationError):
            as_free_zp_complex(periodic_points(make_sigma(), 4))


class TestJoins:
    def test_p3_join_is_bipartite_36_edges(self):
        pts = periodic_points(make_sigma(), 3)
        x = join_periodic_sets(pts, pts, 3)
        assert x.complex.f_vector() == (12, 36)
        assert len(x.complex.by_dim[1]) == len(pts) * len(pts)

    def test_empty_side_gives_discrete(self):
        pts = periodic_points(make_sigma(), 3)
        empty = PeriodicOrbitSet(make_sigma(), 3, ())
        x = join_periodic_sets(pts, empty, 3)
        assert x.complex.f_vector() == (6,)

    def test_join_power_dimension(self):
        pts = periodic_points(make_sigma_m(2), 3)
        x = join_power(pts, 2)
        assert x.dim == 1
        assert homology(x.complex, 3, reduced=True).betti[0] == 0  # connected


class TestRotation:
    def test_rotation_matches_shift(self):
        assert rotate((1, 2, 3)) == (2, 3, 1)

    def test_validation_catches_bad_word(self):
        with pytest.raises(ValidationError):
            PeriodicOrbitSet(make_sigma(), 2, ((1, 1), (1, 2), (2, 1)))


@st.composite
def window_problems(draw):
    """(alphabet, n, offsets, forbidden windows) with at most 4^6 words."""
    alphabet = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    n = draw(st.integers(1, 6))
    offsets = tuple(draw(st.lists(st.integers(0, 8), min_size=2, max_size=3)))
    windows = st.tuples(*[st.sampled_from(alphabet)] * len(offsets))
    forbidden = draw(st.frozensets(windows, max_size=2 * len(alphabet)))
    return alphabet, n, offsets, forbidden


class TestEnumerator:
    @settings(max_examples=200, deadline=None)
    @given(window_problems())
    def test_matches_brute_force(self, problem):
        alphabet, n, offsets, forbidden = problem
        expected = brute_force_cyclic(alphabet, n, offsets, forbidden)
        test = forbidden.__contains__
        assert cyclic_words(alphabet, n, offsets, test, budget=10 ** 6) == expected
        assert [w for w in itertools.product(alphabet, repeat=n)
                if satisfies(w, offsets, test)] == expected

    def test_window_needs_two_offsets(self):
        with pytest.raises(ValidationError):
            cyclic_words([1, 2], 3, (1,), frozenset().__contains__, budget=100)


class TestTable:
    def test_rows(self):
        rows = periodic_table(make_sigma(), [1, 2, 3])
        assert rows == [(1, 0, 0), (2, 6, 3), (3, 6, 2)]
