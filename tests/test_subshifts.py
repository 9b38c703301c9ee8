import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_force_cyclic, brute_force_periodic, cycles, word_family_ok
from zpindex.errors import BudgetExceeded, ValidationError
from zpindex.simplicial import (
    FreeZpComplex,
    SimplicialComplex,
    ZpAction,
    homology,
    join,
    join_power,
)
from zpindex.subshifts import (
    PeriodicOrbitSet,
    Subshift,
    as_free_zp_complex,
    cyclic_words,
    make_sigma_m,
    periodic_points,
    periodic_table,
    rotate,
    satisfies,
)

PRIMES = [2, 3, 5, 7, 11, 13]
SIGMA = make_sigma_m(1)  # adjacent symbols differ


class TestSigma:
    def test_sigma_m_1_is_sigma(self):
        assert SIGMA == Subshift(3, 1, frozenset({(1, 1), (2, 2), (3, 3)}))

    def test_no_fixed_points(self):
        assert periodic_points(SIGMA, 1).is_empty()

    @pytest.mark.parametrize("n", range(2, 9))
    def test_counts_against_brute_force(self, n):
        expected = brute_force_periodic(3, 1, SIGMA.forbidden, n)
        got = periodic_points(SIGMA, n)
        assert list(got.points) == sorted(expected)
        assert len(got) == 2 ** n + 2 * (-1) ** n

    @pytest.mark.parametrize("n", range(2, 13))
    def test_closed_form(self, n):
        assert len(periodic_points(SIGMA, n)) == 2 ** n + 2 * (-1) ** n

    @pytest.mark.parametrize("k", [2, 4])
    def test_general_alphabet_cycle_colorings(self, k):
        # k-colorings of the n-cycle: (k-1)^n + (k-1)(-1)^n
        shift = make_sigma_m(1, alphabet_size=k)
        for n in (3, 4, 5):
            assert len(periodic_points(shift, n)) == (k - 1) ** n + (k - 1) * (-1) ** n

    def test_two_periodic_points(self):
        pts = periodic_points(SIGMA, 2)
        assert len(pts) == 6
        assert len(pts.orbits()) == 3

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            periodic_points(SIGMA, 12, budget=50)


class TestRefusals:
    @pytest.mark.parametrize("alphabet_size,window", [
        (3, 1.5), (3, True), (3, 0), (2.0, 1), (True, 1), (0, 1),
    ], ids=["float-window", "bool-window", "zero-window",
            "float-alphabet", "bool-alphabet", "zero-alphabet"])
    def test_subshift_needs_positive_integers(self, alphabet_size, window):
        with pytest.raises(ValidationError, match="must be an integer >= 1"):
            Subshift(alphabet_size, window, frozenset())

    def test_sigma_m_needs_an_integer_window(self):
        with pytest.raises(ValidationError, match="window 1.5"):
            make_sigma_m(1.5)

    @pytest.mark.parametrize("period,points", [
        (0, ((),)), (-1, ()), (2.0, ()), (True, ()),
    ], ids=["zero", "negative", "float", "bool"])
    def test_period_must_be_a_positive_integer(self, period, points):
        with pytest.raises(ValidationError, match="must be an integer >= 1"):
            PeriodicOrbitSet(SIGMA, period, points)


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
    # l alternating pairs 1, 2 and a single 3: a point of odd period 2l + 1
    @pytest.mark.parametrize("m,expected", [(3, (1, 2, 3)), (5, (1, 2, 1, 2, 3)),
                                            (7, (1, 2, 1, 2, 1, 2, 3))])
    def test_construction(self, m, expected):
        assert expected in periodic_points(SIGMA, m).points


class TestFreeness:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_prime_periods_rotate_freely(self, p):
        pts = periodic_points(SIGMA, p)
        assert pts.rotation_is_free()
        assert all(len(orbit) == p for orbit in pts.orbits())

    def test_orbit_canonical_representatives(self):
        pts = periodic_points(SIGMA, 3)
        for orbit in pts.orbits():
            assert orbit[0] == min(orbit)

    def test_composite_period_not_free(self):
        pts = periodic_points(SIGMA, 4)
        assert not pts.rotation_is_free()  # 1212 has orbit size 2


class TestAsComplex:
    def test_p3_two_orbits(self):
        x = as_free_zp_complex(periodic_points(SIGMA, 3))
        assert x.complex.vertex_count == 6
        assert len(x.vertex_orbits()) == 2

    def test_p2_three_orbits(self):
        x = as_free_zp_complex(periodic_points(SIGMA, 2))
        assert x.complex.vertex_count == 6
        assert len(x.vertex_orbits()) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            as_free_zp_complex(periodic_points(SIGMA, 1))

    def test_composite_period_rejected(self):
        with pytest.raises(ValidationError):
            as_free_zp_complex(periodic_points(SIGMA, 4))


class TestJoins:
    def test_p3_join_is_bipartite_36_edges(self):
        pts = periodic_points(SIGMA, 3)
        x = join_power(as_free_zp_complex(pts), 2)
        assert x.complex.f_vector() == (12, 36)
        assert len(x.complex.by_dim[1]) == len(pts) * len(pts)

    def test_empty_side_gives_discrete(self):
        x = as_free_zp_complex(periodic_points(SIGMA, 3))
        empty = FreeZpComplex(SimplicialComplex(0, ()), ZpAction(3, ()))
        assert join(x, empty).complex.f_vector() == (6,)

    def test_join_power_dimension(self):
        pts = periodic_points(make_sigma_m(2), 3)
        x = join_power(as_free_zp_complex(pts), 2)
        assert x.dim == 1
        assert homology(x.complex, 3, reduced=True).betti[0] == 0  # connected


class TestRotation:
    def test_rotation_matches_shift(self):
        assert rotate((1, 2, 3)) == (2, 3, 1)
        assert rotate((1, 2, 3), 2) == rotate((1, 2, 3), -1) == (3, 1, 2)

    def test_validation_catches_bad_word(self):
        with pytest.raises(ValidationError):
            PeriodicOrbitSet(SIGMA, 2, ((1, 1), (1, 2), (2, 1)))


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
    @settings(max_examples=200)
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

    def test_long_period_without_recursion(self):
        words = cyclic_words((0, 1), 1200, (0, 1), {(0, 0), (1, 1)}.__contains__, 10 ** 5)
        assert words == [(0, 1) * 600, (1, 0) * 600]

    def test_emitted_words_count_against_budget(self):
        # entering the positions costs 4,798 nodes, the two words 2 * 1200 more
        forbidden = {(0, 0), (1, 1)}.__contains__
        assert len(cyclic_words((0, 1), 1200, (0, 1), forbidden, 7198)) == 2
        with pytest.raises(BudgetExceeded):
            cyclic_words((0, 1), 1200, (0, 1), forbidden, 7197)

    def test_budget_bounds_a_long_period(self):
        with pytest.raises(BudgetExceeded):
            periodic_points(SIGMA, 1200, budget=10 ** 5)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError):
            cyclic_words([1, 2], 3, (0, 1), frozenset().__contains__, budget=-1)


class TestOrbitWalk:
    """The constructor checks one word per rotation orbit and keeps the
    orbits of that walk; it must refuse exactly the damaged sets that a
    check of every word on its own refuses."""

    @settings(max_examples=150)
    @given(st.integers(1, 3), st.integers(2, 3), st.integers(1, 8),
           st.sampled_from(["none", "drop", "drop orbit", "add"]), st.data())
    def test_refused_iff_some_word_fails(self, m, k, n, damage, data):
        shift = make_sigma_m(m, k)
        points = list(periodic_points(shift, n).points)
        if damage.startswith("drop"):
            assume(points)
            word = data.draw(st.sampled_from(points))
            gone = {word[a:] + word[:a] for a in range(n if damage == "drop orbit" else 1)}
            points = [w for w in points if w not in gone]
        elif damage == "add":
            length = data.draw(st.sampled_from([n, n, n + 1]))
            points.append(data.draw(st.tuples(*[st.integers(1, k)] * length)))
        if word_family_ok(points, n, m, shift.forbidden):
            pts = PeriodicOrbitSet(shift, n, tuple(points))
            assert pts.orbits() == cycles(pts.points, rotate)
            assert pts.rotation_is_free() == all(len(o) == n for o in cycles(pts.points, rotate))
        else:
            with pytest.raises(ValidationError):
                PeriodicOrbitSet(shift, n, tuple(points))

    def test_orbits_hold_the_points_themselves(self):
        pts = periodic_points(make_sigma_m(2), 8)
        point_ids = {id(w) for w in pts.points}
        assert all(id(w) in point_ids for orbit in pts.orbits() for w in orbit)


class TestTable:
    def test_rows(self):
        rows = periodic_table(SIGMA, [1, 2, 3])
        assert rows == [(1, 0, 0), (2, 6, 3), (3, 6, 2)]
