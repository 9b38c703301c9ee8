from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import zpindex.subshifts
from oracles import (
    OverBudget,
    brute_force_cyclic,
    brute_force_periodic,
    cycles,
    free_word_family_ok,
    place_and_check_words,
)
from zpindex.cubical import GridSpec, build_pp_xm
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
    Subshift,
    _power,
    as_free_zp_complex,
    each_cyclic_word,
    make_sigma_m,
    periodic_points,
    periodic_table,
    rotate,
)

PRIMES = [2, 3, 5, 7, 11, 13]
SIGMA = make_sigma_m(1)  # adjacent symbols differ


class TestSigma:
    def test_sigma_m_1_is_sigma(self):
        assert SIGMA == Subshift(3, 1, frozenset({(1, 1), (2, 2), (3, 3)}))

    def test_no_fixed_points(self):
        assert periodic_points(SIGMA, 1) == []

    @pytest.mark.parametrize("n", range(2, 9))
    def test_counts_against_brute_force(self, n):
        expected = brute_force_periodic(3, 1, SIGMA.forbidden, n)
        got = periodic_points(SIGMA, n)
        assert got == sorted(expected)
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
        assert len(cycles(pts, rotate)) == 3
        assert periodic_table(SIGMA, [2]) == [(2, 6, 3)]

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

    @pytest.mark.parametrize("call,match", [
        (lambda: periodic_points(SIGMA, 0), "must be an integer >= 1"),
        (lambda: periodic_points(SIGMA, -1), "must be an integer >= 1"),
        (lambda: periodic_points(SIGMA, 2.0), "must be an integer >= 1"),
        (lambda: periodic_points(SIGMA, True), "must be an integer >= 1"),
        (lambda: build_pp_xm(1, Fraction(1, 2), 1, 3.0, GridSpec(1, 2)), "p=3.0 is not prime"),
        # the counts are cached, and True == 1, 2.0 == 2 as dict keys
        (lambda: periodic_table(SIGMA, [1, True]), "must be an integer >= 1"),
        (lambda: periodic_table(SIGMA, [2, 2.0]), "must be an integer >= 1"),
    ], ids=["zero", "negative", "float", "bool", "xm-float-p", "table-bool-after-1",
            "table-float-after-2"])
    def test_period_must_be_a_positive_integer(self, call, match):
        with pytest.raises(ValidationError, match=match):
            call()


class TestSigmaM:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_no_m_periodic_points(self, m):
        assert periodic_points(make_sigma_m(m), m) == []

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_nonempty_for_primes_above_m(self, m):
        for p in PRIMES:
            if p > m:
                assert periodic_points(make_sigma_m(m), p)

    def test_p5_m2_nonempty(self):
        assert periodic_points(make_sigma_m(2), 5)

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 6), (2, 6)])
    def test_against_brute_force(self, m, n):
        shift = make_sigma_m(m)
        expected = brute_force_periodic(3, m, shift.forbidden, n)
        assert periodic_points(shift, n) == sorted(expected)


class TestOddWitness:
    # l alternating pairs 1, 2 and a single 3: a point of odd period 2l + 1
    @pytest.mark.parametrize("m,expected", [(3, (1, 2, 3)), (5, (1, 2, 1, 2, 3)),
                                            (7, (1, 2, 1, 2, 1, 2, 3))])
    def test_construction(self, m, expected):
        assert expected in periodic_points(SIGMA, m)


class TestFreeness:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_prime_periods_rotate_freely(self, p):
        orbits = as_free_zp_complex(periodic_points(SIGMA, p)).vertex_orbits()
        assert all(len(orbit) == p for orbit in orbits)

    def test_orbit_canonical_representatives(self):
        pts = periodic_points(SIGMA, 3)
        for orbit in as_free_zp_complex(pts).vertex_orbits():
            words = [pts[i] for i in orbit]
            assert words[0] == min(words)

    def test_composite_period_not_free(self):
        # 1212 has orbit size 2, so 18 points make more than 18 / 4 orbits
        assert periodic_table(SIGMA, [4]) == [(4, 18, 6)]


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
        with pytest.raises(ValidationError, match="not free"):  # rotation fixes 11
            as_free_zp_complex(((1, 1), (1, 2), (2, 1)))


@st.composite
def window_problems(draw):
    """(alphabet, n, offsets, forbidden windows) with at most 4^6 words.
    Period 1, a repeated offset and offsets equal mod n are drawn often:
    they give windows with coinciding positions."""
    alphabet = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    n = draw(st.sampled_from([1, 1, 2, 3, 4, 5, 6]))
    offsets = draw(st.lists(st.integers(0, 8), min_size=2, max_size=3))
    if draw(st.booleans()):
        offsets[-1] = draw(st.sampled_from(offsets[:-1])) + n * draw(st.integers(0, 1))
    offsets = tuple(offsets)
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
        assert list(each_cyclic_word(alphabet, n, offsets, test, budget=10 ** 6)) == expected

    @settings(max_examples=300)
    @given(window_problems(), st.floats(0, 1))
    @example(((0, 1), 1, (3, 3), frozenset({(0, 0)})), 0.0)  # n = 1, size > budget
    @example(((0, 1), 1, (0, 2, 2), frozenset({(0, 0, 0)})), 0.9)
    def test_same_tree_as_place_and_check(self, problem, share):
        """The words, their order and the node count at every budget are
        those of place-and-check: the smallest passing budget is the node
        count, and below it both raise with the same count."""
        alphabet, n, offsets, forbidden = problem
        test = forbidden.__contains__
        words, nodes = place_and_check_words(alphabet, n, offsets, test, 10 ** 9)
        assert list(each_cyclic_word(alphabet, n, offsets, test, nodes)) == words
        for budget in {nodes - 1, int(share * (nodes - 1))}:
            with pytest.raises(OverBudget) as expected:
                place_and_check_words(alphabet, n, offsets, test, budget)
            with pytest.raises(BudgetExceeded) as raised:
                list(each_cyclic_word(alphabet, n, offsets, test, budget))
            assert raised.value.count == expected.value.count

    def test_window_needs_two_offsets(self):
        with pytest.raises(ValidationError):
            list(each_cyclic_word([1, 2], 3, (1,), frozenset().__contains__, budget=100))

    def test_long_period_without_recursion(self):
        forbidden = {(0, 0), (1, 1)}.__contains__
        words = list(each_cyclic_word((0, 1), 1200, (0, 1), forbidden, 10 ** 5))
        assert words == [(0, 1) * 600, (1, 0) * 600]

    def test_emitted_words_count_against_budget(self):
        # entering the positions costs 4,798 nodes, the two words 2 * 1200 more
        forbidden = {(0, 0), (1, 1)}.__contains__
        assert len(list(each_cyclic_word((0, 1), 1200, (0, 1), forbidden, 7198))) == 2
        with pytest.raises(BudgetExceeded):
            list(each_cyclic_word((0, 1), 1200, (0, 1), forbidden, 7197))

    def test_budget_bounds_a_long_period(self):
        with pytest.raises(BudgetExceeded):
            periodic_points(SIGMA, 1200, budget=10 ** 5)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError):
            list(each_cyclic_word([1, 2], 3, (0, 1), frozenset().__contains__, budget=-1))


class TestOrbitWalk:
    """`as_free_zp_complex` checks a word family and leaves the permutation
    and freeness of the rotation to `ZpAction` and `FreeZpComplex`; it must
    refuse exactly the damaged families that a check of every word on its
    own refuses, and keep the rotation orbits otherwise."""

    @settings(max_examples=150)
    @given(st.integers(1, 3), st.integers(2, 3), st.integers(1, 8),
           st.sampled_from(["none", "drop", "drop orbit", "add"]), st.data())
    def test_refused_iff_some_word_fails(self, m, k, n, damage, data):
        words = periodic_points(make_sigma_m(m, k), n)
        if damage.startswith("drop"):
            assume(words)
            word = data.draw(st.sampled_from(words))
            gone = {word[a:] + word[:a] for a in range(n if damage == "drop orbit" else 1)}
            words = [w for w in words if w not in gone]
        elif damage == "add":
            length = data.draw(st.sampled_from([n, n, n + 1]))
            words.append(data.draw(st.tuples(*[st.integers(1, k)] * length)))
        if free_word_family_ok(words):
            x = as_free_zp_complex(words)
            orbits = [tuple(words[i] for i in orbit) for orbit in x.vertex_orbits()]
            assert orbits == cycles(words, lambda w: w[1:] + w[:1])
        else:
            with pytest.raises(ValidationError):
                as_free_zp_complex(words)


@st.composite
def shifts_and_periods(draw):
    """A Subshift (alphabet 1-4, window 1-5, random forbidden pairs) and
    periods 1-9; a divisor of the window, where the window offset read mod
    the period is 0 and every pair is a self-pair, is drawn often."""
    k, window = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    pairs = st.tuples(st.integers(1, k), st.integers(1, k))
    shift = Subshift(k, window, draw(st.frozensets(pairs, max_size=k * k)))
    divisors = [d for d in range(1, window + 1) if window % d == 0]
    periods = draw(st.lists(st.integers(1, 9) | st.sampled_from(divisors),
                            min_size=1, max_size=4))
    return shift, periods


@st.composite
def shifts_and_a_short_period(draw):
    """A Subshift (alphabet 1-4, window 1-6, random forbidden pairs) and a
    period with at most 4^6 words, often a divisor of the window."""
    k, window = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    pairs = st.tuples(st.integers(1, k), st.integers(1, k))
    shift = Subshift(k, window, draw(st.frozensets(pairs, max_size=k * k)))
    longest = max(n for n in range(1, 13) if k ** n <= 4 ** 6)
    divisors = [d for d in range(1, window + 1) if window % d == 0]
    return shift, draw(st.integers(1, longest) | st.sampled_from(divisors))


class TestTable:
    def test_rows(self):
        rows = periodic_table(SIGMA, [1, 2, 3])
        assert rows == [(1, 0, 0), (2, 6, 3), (3, 6, 2)]

    @settings(max_examples=100)
    @given(shifts_and_periods())
    def test_burnside_matches_walked_orbits(self, problem):
        """Each row is the period, its point count and the number of its
        rotation cycles, walked one by one."""
        shift, periods = problem
        expected = []
        for n in periods:
            words = periodic_points(shift, n)
            expected.append((n, len(words), len(cycles(words, rotate))))
        assert periodic_table(shift, periods) == expected

    def test_budget_raises_before_divisors_are_counted(self):
        with pytest.raises(BudgetExceeded) as raised:
            periodic_table(SIGMA, [1200], budget=10 ** 5)
        assert "length-1200" in str(raised.value)

    def test_budget_bounds_the_symbols_counted(self):
        # 30 points of period 5, so 150 symbols
        assert periodic_table(SIGMA, [5], budget=150) == [(5, 30, 6)]
        with pytest.raises(BudgetExceeded, match="length-5 words exceeded budget 149"):
            periodic_table(SIGMA, [5], budget=149)

    @settings(max_examples=150)
    @given(shifts_and_a_short_period())
    def test_counts_match_brute_force(self, problem):
        """The row of each period is that of the words brute force lists,
        and the budget passes it exactly when it covers their symbols."""
        shift, n = problem
        words = brute_force_periodic(shift.alphabet_size, shift.window, shift.forbidden, n)
        row = (n, len(words), len(cycles(words, rotate)))
        assert periodic_table(shift, [n], budget=n * len(words)) == [row]
        if words:
            with pytest.raises(BudgetExceeded):
                periodic_table(shift, [n], budget=n * len(words) - 1)

    @settings(max_examples=200)
    @given(st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, 3), min_size=k, max_size=k), min_size=k, max_size=k)),
        st.integers(0, 40), st.integers(1, 10 ** 6))
    def test_cut_power_is_the_cut_true_power(self, matrix, e, cap):
        """Cutting every product at the cap gives the true power cut at the cap."""
        k = len(matrix)
        power = [[int(i == j) for j in range(k)] for i in range(k)]
        for _ in range(e):
            power = [[sum(power[i][m] * matrix[m][j] for m in range(k)) for j in range(k)]
                     for i in range(k)]
        assert _power(matrix, e, cap) == [[min(x, cap) for x in row] for row in power]

    def test_empty_long_period_is_counted_at_once(self, monkeypatch):
        def no_divisors(n):
            raise AssertionError("divisors listed for a period with no points")
        monkeypatch.setattr(zpindex.subshifts, "_totients", no_divisors)
        shift = Subshift(1, 1, frozenset({(1, 1)}))
        assert periodic_table(shift, [10 ** 12]) == [(10 ** 12, 0, 0)]

    def test_no_word_is_built(self, monkeypatch):
        def no_words(*args):
            raise AssertionError("a word was enumerated")
        monkeypatch.setattr(zpindex.subshifts, "each_cyclic_word", no_words)
        # the proper 3-colourings of the n-cycle, and of two n/2-cycles for even n
        rows = periodic_table(make_sigma_m(2), range(3, 17))
        assert [count for _, count, _ in rows] == [
            (2 ** n + 2 * (-1) ** n if n % 2 else (2 ** (n // 2) + 2 * (-1) ** (n // 2)) ** 2)
            for n in range(3, 17)]
        assert periodic_table(SIGMA, range(1, 6)) == [
            (1, 0, 0), (2, 6, 3), (3, 6, 2), (4, 18, 6), (5, 30, 6)]
