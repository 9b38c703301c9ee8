import dataclasses
import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import zpindex.simplicial
from oracles import (
    action_ok,
    bad_simplices,
    betti_by_elimination,
    brute_force_closure,
    brute_force_maximal,
    brute_force_subdivision,
    cycles,
    fixed_by_some_power,
    vertex_map_problems,
)
from zpindex.cubical import GridSpec, build_pp_xm, cubical_to_simplicial
from zpindex.errors import DEFAULT_CELL_BUDGET, BudgetExceeded, ValidationError
from zpindex.simplicial import (
    FreeZpComplex,
    SimplicialComplex,
    ZpAction,
    _cycles,
    barycentric_subdivide,
    complex_from_json_dict,
    complex_to_json_dict,
    e_n_zp,
    homology,
    join,
    join_power,
    make_discrete_zp,
    subdivision_size,
)
from zpindex.verify import check_vertex_map


def assert_valid(x: FreeZpComplex):
    # re-run the checks explicitly: the stored levels close back to themselves
    FreeZpComplex(x.complex, x.action)
    assert SimplicialComplex(x.complex.vertex_count, x.complex.by_dim) == x.complex


def no_closure(level):
    # patched in for `simplicial._columns`, which every closure step calls
    raise AssertionError("the closure was built")


def euler_matches_betti(cx, p):
    prof = homology(cx, p, reduced=False)
    chi = sum((-1) ** k * b for k, b in enumerate(prof.betti))
    assert chi == sum((-1) ** k * f for k, f in enumerate(cx.f_vector()))


class TestDiscrete:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_shape(self, p):
        x = make_discrete_zp(p)
        assert x.complex.vertex_count == p
        assert x.complex.f_vector() == (p,)
        assert x.dim == 0
        assert x.action.perm == tuple((v + 1) % p for v in range(p))
        assert_valid(x)

    @pytest.mark.parametrize("bad", [1, 4, 6, 9])
    def test_rejects_non_prime(self, bad):
        with pytest.raises(ValidationError):
            make_discrete_zp(bad)


class TestJoin:
    def test_z2_join_z2_is_four_cycle(self):
        x = join(make_discrete_zp(2), make_discrete_zp(2))
        assert x.complex.f_vector() == (4, 4)
        # edges connect the two copies: the simplicial circle
        assert x.complex.by_dim[1] == ((0, 2), (0, 3), (1, 2), (1, 3))
        prof = homology(x.complex, 2, reduced=False)
        assert prof.betti == (1, 1)
        assert_valid(x)

    def test_join_with_empty_is_identity(self):
        x = e_n_zp(1, 2)
        empty = FreeZpComplex(SimplicialComplex(0, ()), ZpAction(2, ()))
        assert join(x, empty) == x
        assert join(empty, x) == x

    def test_z3_join_z3_is_k33(self):
        x = join(make_discrete_zp(3), make_discrete_zp(3))
        assert x.complex.f_vector() == (6, 9)
        # oracle: dense elimination over F_3 on the explicit complex
        oracle = betti_by_elimination(
            [list(x.complex.by_dim[0]), list(x.complex.by_dim[1])], 3)
        prof = homology(x.complex, 3, reduced=True)
        assert (oracle[0] - 1, oracle[1]) == (0, 4)
        assert prof.betti == (0, 4)
        assert_valid(x)

    def test_mismatched_primes_rejected(self):
        with pytest.raises(ValidationError):
            join(make_discrete_zp(2), make_discrete_zp(3))

    @pytest.mark.parametrize("m,n,p", [(0, 0, 2), (0, 1, 2), (1, 0, 3), (0, 2, 2)])
    def test_join_of_models_is_bigger_model(self, m, n, p):
        # the vertex numbering makes the identification literal
        assert join(e_n_zp(m, p), e_n_zp(n, p)) == e_n_zp(m + n + 1, p)

    def test_join_power_joins_copies_on_the_right(self):
        circle = e_n_zp(1, 3)
        assert join_power(circle, 3) == join(join(circle, circle), circle)
        with pytest.raises(ValidationError, match="at least one copy"):
            join_power(circle, 0)


class TestStandardModels:
    def test_n0_is_discrete(self, ):
        assert e_n_zp(0, 3) == make_discrete_zp(3)

    def test_octahedron(self):
        x = e_n_zp(2, 2)
        assert x.complex.f_vector() == (6, 12, 8)
        prof = homology(x.complex, 2, reduced=False)
        assert prof.betti == (1, 0, 1)
        assert prof.homological_connectivity == 1

    def test_k33_connectivity(self):
        prof = homology(e_n_zp(1, 3).complex, 3, reduced=True)
        assert prof.betti == (0, 4)
        assert prof.homological_connectivity == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_connectivity_is_exactly_n_minus_1(self, n, p):
        x = e_n_zp(n, p)
        prof = homology(x.complex, p, reduced=True)
        assert prof.homological_connectivity == n - 1
        # reduced homology concentrated on top with rank (p-1)^(n+1)
        expected = tuple(0 if k < n else (p - 1) ** (n + 1) for k in range(n + 1))
        assert prof.betti == expected
        assert_valid(x)
        euler_matches_betti(x.complex, p)


class TestSubdivision:
    def test_single_edge_becomes_path(self):
        """Two edges swapped by Z_2 (one edge admits no free action)."""
        x = FreeZpComplex(SimplicialComplex.from_simplices(4, [(0, 1), (2, 3)]),
                          ZpAction(2, (2, 3, 0, 1)))
        sd = barycentric_subdivide(x)
        assert sd.complex.f_vector() == (6, 4)
        assert sd.complex.maximal_simplices() == [(0, 4), (1, 4), (2, 5), (3, 5)]
        assert sd.action.perm == (2, 3, 0, 1, 5, 4)

    def test_four_cycle_becomes_eight_cycle(self):
        x = e_n_zp(1, 2)
        sd = barycentric_subdivide(x)
        assert sd.complex.f_vector() == (8, 8)
        assert homology(sd.complex, 2, reduced=False).betti == (1, 1)
        assert_valid(sd)

    def test_octahedron_subdivision(self):
        x = e_n_zp(2, 2)
        sd = barycentric_subdivide(x)
        assert sd.complex.vertex_count == 26
        before = homology(x.complex, 2, reduced=False).betti
        after = homology(sd.complex, 2, reduced=False).betti
        assert before == after == (1, 0, 1)

    @pytest.mark.parametrize("builder", [
        lambda: make_discrete_zp(3),
        lambda: e_n_zp(1, 3),
        lambda: e_n_zp(2, 2),
        lambda: join(make_discrete_zp(2), e_n_zp(1, 2)),
    ])
    def test_subdivision_preserves_betti(self, builder):
        x = builder()
        sd = barycentric_subdivide(x)
        p = x.p
        assert homology(x.complex, p, reduced=True).betti == \
            homology(sd.complex, p, reduced=True).betti
        assert_valid(sd)

    @pytest.mark.parametrize("n,p", [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3),
                                     (1, 5)])
    def test_size_predicted_from_f_vector(self, n, p):
        x = e_n_zp(n, p)
        assert subdivision_size(x.complex.f_vector()) == \
            sum(barycentric_subdivide(x).complex.f_vector())

    def test_oversized_input_refused_before_building(self, monkeypatch):
        # E_7(Z_2) has 6,560 simplices and its subdivision 197,613,376.  A
        # build starts by listing the simplices, which here fails at once.
        x = e_n_zp(7, 2)

        def listed(self):
            raise AssertionError("the subdivision was begun")
        monkeypatch.setattr(SimplicialComplex, "simplices", listed)
        with pytest.raises(BudgetExceeded) as raised:
            barycentric_subdivide(x)
        assert raised.value.count == subdivision_size(x.complex.f_vector()) > DEFAULT_CELL_BUDGET


@st.composite
def free_complexes(draw):
    """The Z_p-images of a few drawn simplices over 1-4 vertex orbits
    (vertex v moves to v + 1 within its orbit of p).  A drawn simplex that
    holds a whole orbit loses that orbit's last vertex, so no face is
    setwise fixed and the action is free."""
    p = draw(st.sampled_from([2, 3]))
    orbits = draw(st.integers(1, 4))
    perm = tuple(v - v % p + (v + 1) % p for v in range(orbits * p))
    seeds = draw(st.lists(st.sets(st.integers(0, orbits * p - 1), min_size=1, max_size=4),
                          min_size=1, max_size=3))
    images = []
    for s in seeds:
        s -= {o * p + p - 1 for o in range(orbits) if all(o * p + j in s for j in range(p))}
        for _ in range(p):
            images.append(tuple(s))
            s = {perm[v] for v in s}
    return FreeZpComplex(SimplicialComplex.from_simplices(orbits * p, images), ZpAction(p, perm))


class TestJoinSize:
    @settings(max_examples=40)
    @given(free_complexes(), free_complexes(), st.integers(1, 3))
    def test_size_predicted(self, x, y, copies):
        assume(x.p == y.p)
        size = sum(x.complex.f_vector())
        assert sum(join(x, y).complex.f_vector()) == \
            (size + 1) * (sum(y.complex.f_vector()) + 1) - 1
        assert sum(join_power(x, copies).complex.f_vector()) == (size + 1) ** copies - 1

    def test_oversized_join_refused_before_building(self, monkeypatch):
        # E_7(Z_7) joins 8 copies of Z_7 (7 simplices), and E_3(Z_7) * E_3(Z_7)
        # two of 8^4 - 1: both have 8^8 - 1 simplices
        e3p7 = e_n_zp(3, 7)

        def listed(self):
            raise AssertionError("a join was begun")
        monkeypatch.setattr(SimplicialComplex, "maximal_simplices", listed)
        for build in (lambda: e_n_zp(7, 7), lambda: join(e3p7, e3p7)):
            with pytest.raises(BudgetExceeded) as raised:
                build()
            assert raised.value.count == 8 ** 8 - 1 > DEFAULT_CELL_BUDGET


class TestSubdivisionOracle:
    @settings(max_examples=60)
    @given(free_complexes())
    def test_chains_under_inclusion(self, x):
        sd = barycentric_subdivide(x)
        chains, perm = brute_force_subdivision(x.complex.simplices(), x.action.perm)
        assert sd.complex.vertex_count == len(perm)
        assert set(sd.complex.simplices()) == chains
        assert sd.action.perm == perm
        assert sum(sd.complex.f_vector()) == subdivision_size(x.complex.f_vector())
        assert_valid(sd)

    def test_empty_complex(self):
        sd = barycentric_subdivide(FreeZpComplex(SimplicialComplex(0, []), ZpAction(2, ())))
        assert sd.complex.is_empty() and sd.complex.vertex_count == 0


class TestHomology:
    def test_single_vertex_is_acyclic(self):
        cx = SimplicialComplex.from_simplices(1, [(0,)])
        prof = homology(cx, 2, reduced=True)
        assert prof.betti == (0,)
        assert prof.homological_connectivity == math.inf

    def test_empty_complex(self):
        prof = homology(SimplicialComplex(0, ()), 2)
        assert prof.homological_connectivity == -2
        assert prof.betti == ()

    def test_four_cycle(self):
        prof = homology(e_n_zp(1, 2).complex, 2, reduced=True)
        assert prof.betti == (0, 1)
        assert prof.homological_connectivity == 0

    def test_disconnected(self):
        prof = homology(make_discrete_zp(5).complex, 5, reduced=True)
        assert prof.betti == (4,)
        assert prof.homological_connectivity == -1

    @pytest.mark.parametrize("n,p", [(1, 2), (2, 2), (1, 3), (2, 3), (3, 2)])
    def test_euler_characteristic_cross_check(self, n, p):
        euler_matches_betti(e_n_zp(n, p).complex, p)

    @pytest.mark.parametrize("n,p,coeff", [(2, 2, 3), (1, 3, 2), (2, 3, 5)])
    def test_model_betti_against_dense_oracle(self, n, p, coeff):
        cx = e_n_zp(n, p).complex
        oracle = betti_by_elimination([list(level) for level in cx.by_dim], coeff)
        assert tuple(oracle) == homology(cx, coeff, reduced=False).betti


class TestValidation:
    def test_non_simplicial_action_rejected(self):
        cx = SimplicialComplex.from_simplices(4, [(0, 1), (2,), (3,)])
        with pytest.raises(ValidationError):
            FreeZpComplex(cx, ZpAction(2, (2, 3, 0, 1)))  # edge image (2,3) missing

    def test_non_free_action_rejected(self):
        # swapping the endpoints of an edge fixes the edge setwise
        cx = SimplicialComplex.from_simplices(2, [(0, 1)])
        with pytest.raises(ValidationError):
            FreeZpComplex(cx, ZpAction(2, (1, 0)))

    def test_wrong_order_rejected(self):
        with pytest.raises(ValidationError):
            ZpAction(2, (1, 2, 0))  # 3-cycle has order 3, not 2


class TestValueTypes:
    """Both complex types are frozen values: fields cannot be reassigned (so
    no hash goes stale), and equal complexes hash equal however built."""

    @pytest.mark.parametrize("field", ["vertex_count", "by_dim", "complex", "action"])
    def test_fields_are_read_only(self, field):
        x = e_n_zp(1, 3)
        owner = x.complex if field in ("vertex_count", "by_dim") else x
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(owner, field, getattr(owner, field))

    @pytest.mark.parametrize("p", [2, 3])
    def test_equal_complexes_hash_equal(self, p):
        model = e_n_zp(2, p)
        loaded = complex_from_json_dict(json.loads(json.dumps(complex_to_json_dict(model))))
        joined = join(join(make_discrete_zp(p), make_discrete_zp(p)), make_discrete_zp(p))
        listed = SimplicialComplex(model.complex.vertex_count, map(list, model.complex.by_dim))
        assert loaded is not model and loaded == model == joined
        assert hash(loaded) == hash(model) == hash(joined)
        assert listed == model.complex and hash(listed) == hash(model.complex)
        assert listed.by_dim == model.complex.by_dim and type(listed.by_dim[0]) is tuple


class TestLevelChecks:
    """Each check of the two constructors refuses its input on its own and
    names the first offending simplex."""

    @pytest.mark.parametrize("vertex_count,by_dim,message", [
        (3, [[(-1,), (0,), (1,)]], "simplex (-1,) exceeds vertex range 0..2"),
        (3, [[(0,), (1,)], [(0, 1), (1, 3)]], "simplex (1, 3) exceeds vertex range 0..2"),
        (2, [[(0.5,), (1,)]], "simplex (0.5,) must hold integers"),
        (2, [[(False,), (True,)], [(False, True)]],
         "simplex (False,) must hold integers"),
        (2.7, [[(0,), (1,)]], "vertex count 2.7 must be an integer >= 0"),
        (True, [[(0,)]], "vertex count True must be an integer >= 0"),
        (-1, [], "vertex count -1 must be an integer >= 0"),
    ], ids=["negative-vertex", "vertex-beyond-count", "float-vertex", "bool-vertices",
            "float-vertex-count", "bool-vertex-count", "negative-vertex-count"])
    def test_complex_check_refuses(self, vertex_count, by_dim, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            SimplicialComplex(vertex_count, by_dim)

    @pytest.mark.parametrize("family", [
        [(0, 1), (True, 2)], [(True, 2), (0, 1)], [(0, 1), (1.0, 2)], [(1.0, 2), (0, 1)],
    ], ids=["bool-after-int", "bool-before-int", "float-after-int", "float-before-int"])
    def test_non_integer_behind_equal_int_refused(self, family):
        # True and 1.0 hash equal to 1, so the set of vertices may keep the
        # int: the check reads every vertex of every given simplex
        bad = next(s for s in family if 0 not in s)
        with pytest.raises(ValidationError, match=re.escape(f"simplex {bad} must hold integers")):
            SimplicialComplex.from_simplices(3, family)

    def test_closure_refuses_vertices_that_do_not_sort(self):
        # the type check names the simplex before the closure's sort could fail
        with pytest.raises(ValidationError, match=re.escape("simplex ('a',) must hold integers")):
            SimplicialComplex.from_simplices(2, [("a",), (0,)])

    @pytest.mark.parametrize("vertex_count,simplices,p,perm,message", [
        (2, [(0, 1)], 2, (1, 0, 3, 2), "permutation length differs from vertex count"),
        (4, [(0, 1), (2,), (3,)], 2, (2, 3, 0, 1),
         "action is not simplicial: image of (0, 1) missing"),
        (4, [(0, 2), (1, 2), (3,)], 2, (1, 0, 3, 2),
         "action is not simplicial: image of (0, 2) missing"),
        # the top level maps onto itself; a lower maximal simplex does not
        (6, [(0, 1), (2, 3), (4,)], 2, (2, 3, 0, 1, 5, 4),
         "action is not simplicial: image of (4,) missing"),
        (2, [(0, 1)], 2, (1, 0), "action is not free: (0, 1) is setwise fixed"),
        (3, [(0,), (1,), (2,)], 2, (1, 0, 2), "action is not free: (2,) is setwise fixed"),
        (2, [(0,), (1,)], 2, (True, False), "perm must hold integers"),
        (2, [(0,), (1,)], 2.0, (1, 0), "p=2.0 is not prime"),
    ], ids=["perm-length", "non-simplicial-vertex-image", "non-simplicial-edge-image",
            "non-simplicial-lower-maximal", "fixed-edge", "fixed-vertex", "bool-perm",
            "float-prime"])
    def test_action_check_refuses(self, vertex_count, simplices, p, perm, message):
        cx = SimplicialComplex.from_simplices(vertex_count, simplices)
        with pytest.raises(ValidationError, match=re.escape(message)):
            FreeZpComplex(cx, ZpAction(p, perm))


@st.composite
def damaged_complexes(draw):
    """(vertex_count, by_dim): the levels of a complex with at most one drawn
    change, which may leave them unclosed, unsorted or misfiled, or hold a
    vertex out of range, a list or an empty simplex."""
    n, family = draw(simplex_families())
    by_dim = [list(level) for level in SimplicialComplex.from_simplices(n, family).by_dim]
    change = draw(st.sampled_from(["none", "replace", "insert", "add face", "unsort", "out of range",
                                   "drop", "swap", "empty top", "vertex count"]))
    event(f"change: {change}, dimension {len(by_dim) - 1}")
    vertex_tuple = st.lists(st.integers(-1, n), max_size=n + 1).map(tuple)
    if change in ("replace", "drop", "swap") and by_dim:
        level = by_dim[draw(st.integers(0, len(by_dim) - 1))]
        i = draw(st.integers(0, len(level) - 1))
        if change == "replace":
            level[i] = draw(vertex_tuple | vertex_tuple.map(list) | st.just(list(level[i])))
        elif change == "drop":
            del level[i]
        elif i + 1 < len(level):
            level[i], level[i + 1] = level[i + 1], level[i]
    elif change == "insert":
        d = draw(st.integers(0, len(by_dim)))
        if d == len(by_dim):
            by_dim.append([])
        by_dim[d].insert(draw(st.integers(0, len(by_dim[d]))), draw(vertex_tuple))
    elif change == "add face":
        # a simplex filed in order whose faces may be missing
        s = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
        while len(by_dim) < len(s):
            by_dim.append([])
        by_dim[len(s) - 1] = sorted(set(by_dim[len(s) - 1]) | {s})
    elif change == "unsort" and len(by_dim) > 1:
        # a copy of an edge, reversed or with a repeated vertex, filed in order
        level = by_dim[1]
        s = level[draw(st.integers(0, len(level) - 1))]
        level.append(s[::-1] if draw(st.booleans()) else s[:1] + s[:-1])
        level.sort()
    elif change == "out of range":
        # a vertex below 0 or at n filed in order
        if not by_dim:
            by_dim.append([])
        if draw(st.booleans()):
            by_dim[0].insert(0, (-1,))
        else:
            by_dim[0].append((n,))
    elif change == "empty top":
        by_dim.append([])
    elif change == "vertex count":
        n += draw(st.integers(-2, 1))
    return n, by_dim


@st.composite
def acted_complexes(draw, closed=False):
    """(complex, p, perm): seed simplices with some of their images under a
    prime-order permutation, closed downward, on len(perm) vertices or one
    more.  `closed`: a permutation without fixed points, every image and
    len(perm) vertices, so that only a setwise-fixed seed can spoil it."""
    p, perm = draw(free_perms() if closed else prime_order_perms())
    seeds = draw(st.lists(st.sets(st.integers(0, len(perm) - 1), min_size=1, max_size=3),
                          max_size=4))
    steps = p if closed else draw(st.integers(1, p))
    family = set()
    for s in seeds:
        for _ in range(steps):
            family.add(tuple(sorted(s)))
            s = {perm[v] for v in s}
    extra = 0 if closed else draw(st.sampled_from([0, 0, 0, 1]))
    return SimplicialComplex.from_simplices(len(perm) + extra, family), p, perm


class TestLevelChecksMatchOracle:
    """The constructor stores the closure of whatever it is given, or refuses
    a vertex; the per-level action checks refuse exactly what a check of
    every simplex on its own refuses, and report the same vertex-map
    problems."""

    @settings(max_examples=400)
    @given(damaged_complexes())
    def test_complex_refused_iff_oracle_refuses(self, case):
        n, by_dim = case
        given = [s for level in by_dim for s in level]
        if n >= 0 and all(s and all(type(v) is int and 0 <= v < n for v in s) for s in given):
            closure = brute_force_closure(given)
            top = max(map(len, closure), default=0)
            assert SimplicialComplex(n, by_dim).by_dim == tuple(
                tuple(sorted(s for s in closure if len(s) == size)) for size in range(1, top + 1))
        else:
            with pytest.raises(ValidationError):
                SimplicialComplex(n, by_dim)

    @settings(max_examples=300)
    @given(acted_complexes())
    # the first bad simplex is a fixed edge below two maximal triangles
    @example((SimplicialComplex.from_simplices(4, [(0, 1, 2), (0, 1, 3)]), 2, (1, 0, 3, 2)))
    # a fixed vertex comes before a vertex whose image is missing
    @example((SimplicialComplex.from_simplices(4, [(0,), (1, 3)]), 2, (0, 2, 1, 3)))
    # a missing vertex image comes before a fixed edge
    @example((SimplicialComplex.from_simplices(4, [(0, 1), (2,)]), 2, (1, 0, 3, 2)))
    def test_action_refused_iff_oracle_refuses(self, case):
        """Refused iff the oracle refuses, and with the message naming the
        oracle's first bad simplex in level order; the fast check reads only
        the maximal simplices and the vertex orbits."""
        cx, p, perm = case
        if action_ok(cx.vertex_count, cx.by_dim, perm):
            event("accepted")
            FreeZpComplex(cx, ZpAction(p, perm))
            return
        if len(perm) != cx.vertex_count:
            event("permutation length")
            message = "permutation length differs from vertex count"
        else:
            bad, *later = bad_simplices(cx.by_dim, perm)
            fixed = {perm[v] for v in bad} == set(bad)
            maximal = bad in brute_force_maximal(cx.simplices())
            mixed = any(({perm[v] for v in s} == set(s)) != fixed for s in later)
            event(f"{'fixed' if fixed else 'missing'} at a {'maximal' if maximal else 'face'}"
                  + (", mixed" if mixed else ""))
            message = (f"action is not free: {bad} is setwise fixed" if fixed
                       else f"action is not simplicial: image of {bad} missing")
        with pytest.raises(ValidationError, match=re.escape(message)):
            FreeZpComplex(cx, ZpAction(p, perm))

    @settings(max_examples=300)
    @given(acted_complexes(closed=True), acted_complexes(closed=True), st.data())
    def test_vertex_map_problems_match_oracle(self, source_case, target_case, data):
        (scx, sp, sperm), (tcx, tp, tperm) = source_case, target_case
        assume(action_ok(scx.vertex_count, scx.by_dim, sperm))
        assume(action_ok(tcx.vertex_count, tcx.by_dim, tperm))
        source = FreeZpComplex(scx, ZpAction(sp, sperm))
        target = FreeZpComplex(tcx, ZpAction(tp, tperm))
        n_source, n_target = len(sperm), len(tperm)
        if data.draw(st.booleans()):
            # equivariant on the source orbits, so that the image checks decide
            vertex_map = [0] * n_source
            for orbit in cycles(range(n_source), sperm.__getitem__):
                t = data.draw(st.integers(0, n_target - 1))
                for v in orbit:
                    vertex_map[v], t = t, tperm[t]
        else:
            entry = st.integers(-1, n_target) | st.booleans()
            size = n_source + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
            vertex_map = data.draw(st.lists(entry, min_size=max(size, 0), max_size=max(size, 0)))
        vertex_map = tuple(vertex_map)
        assert check_vertex_map(source, target, vertex_map) == \
            vertex_map_problems(source, target, vertex_map)


def _z3_orbits(vertex_count, seeds):
    """The closure of the Z_3-orbits of seeds, under the shift that cycles
    each block 3k, 3k + 1, 3k + 2 of vertices."""
    perm = tuple(v - v % 3 + (v + 1) % 3 for v in range(vertex_count))
    family = [tuple(v - v % 3 + (v + a) % 3 for v in s) for s in seeds for a in range(3)]
    return FreeZpComplex(SimplicialComplex.from_simplices(vertex_count, family), ZpAction(3, perm))


def _z3_map(source, images):
    """The equivariant map into E_n(Z_3) that sends each seed vertex v to
    images[v] and the rest of v's orbit along with it."""
    vertex_map = [0] * source.complex.vertex_count
    for v, t in images.items():
        for a in range(3):
            vertex_map[v - v % 3 + (v + a) % 3] = t - t % 3 + (t + a) % 3
    return tuple(vertex_map)


class TestVertexMapFastPath:
    """`check_vertex_map` reads the images of the maximal simplices first and
    walks every simplex only when one of them fails; the problem list is the
    oracle's either way."""

    def test_map_failing_only_on_lower_maximal_simplices(self):
        # an orbit of triangles and a separate orbit of edges, both maximal;
        # the triangles land on target triangles, the edges inside one copy
        source = _z3_orbits(15, [(0, 3, 6), (9, 12)])
        target = e_n_zp(2, 3)
        vertex_map = _z3_map(source, {0: 0, 3: 3, 6: 6, 9: 0, 12: 1})
        problems = check_vertex_map(source, target, vertex_map)
        assert problems == vertex_map_problems(source, target, vertex_map)
        assert problems == [f"image {image} of simplex {s} is not a target simplex"
                            for s, image in [((9, 12), (0, 1)), ((10, 13), (1, 2)),
                                             ((11, 14), (0, 2))]]

    def test_failing_faces_reported_before_their_coface(self):
        source = _z3_orbits(9, [(0, 3, 6)])
        target = e_n_zp(2, 3)
        vertex_map = _z3_map(source, {0: 0, 3: 1, 6: 3})
        problems = check_vertex_map(source, target, vertex_map)
        assert problems == vertex_map_problems(source, target, vertex_map)
        assert problems == [f"image {image} of simplex {s} is not a target simplex"
                            for s, image in [((0, 3), (0, 1)), ((1, 4), (1, 2)), ((2, 5), (0, 2)),
                                             ((0, 3, 6), (0, 1, 3)), ((1, 4, 7), (1, 2, 4)),
                                             ((2, 5, 8), (0, 2, 5))]]

    # built in the test, so that a fault on the empty complex fails this
    # test and not the collection of the module
    @pytest.mark.parametrize("build,vertex_map", [
        (lambda: FreeZpComplex(SimplicialComplex(0, []), ZpAction(3, ())), ()),
        (lambda: FreeZpComplex(SimplicialComplex(3, []), ZpAction(3, (1, 2, 0))), (0, 2, 1)),
        (lambda: make_discrete_zp(3), (3, 4, 5)),
        (lambda: make_discrete_zp(3), (3, 5, 4)),
    ], ids=["empty", "no-simplices-not-equivariant", "coind-shaped", "coind-not-equivariant"])
    def test_sources_of_dimension_at_most_0(self, build, vertex_map):
        # the table then holds no more than the target's vertices
        source, target = build(), e_n_zp(3, 3)
        assert source.dim <= 0 < target.dim
        assert check_vertex_map(source, target, vertex_map) == \
            vertex_map_problems(source, target, vertex_map)


class TestJsonInterchange:
    @pytest.mark.parametrize("builder", [
        lambda: make_discrete_zp(3),
        lambda: e_n_zp(2, 2),
        lambda: join(make_discrete_zp(3), make_discrete_zp(3)),
    ])
    def test_round_trip(self, builder):
        x = builder()
        assert complex_from_json_dict(json.loads(json.dumps(complex_to_json_dict(x)))) == x

    def test_key_names(self):
        data = complex_to_json_dict(make_discrete_zp(2))
        assert set(data) == {"p", "vertices", "perm", "simplices"}

    def test_maximal_simplices_only(self):
        data = complex_to_json_dict(e_n_zp(2, 2))
        assert sorted(len(s) for s in data["simplices"]) == [3] * 8

    def test_closure_budget(self):
        # 2^40 - 1 faces are refused before any is built; the file of
        # X_1(N=2, p=3, G=2) bounds its closure by 66,528 and loads
        big = {"p": 2, "vertices": 40, "perm": [v ^ 1 for v in range(40)],
               "simplices": [list(range(40))]}
        with pytest.raises(BudgetExceeded, match="the closure would have 1099511627775"):
            complex_from_json_dict(big)
        x = cubical_to_simplicial(build_pp_xm(2, Fraction(1, 2), 1, 3, GridSpec(2, 2)))
        assert complex_from_json_dict(json.loads(json.dumps(complex_to_json_dict(x)))) == x

    def test_vertex_range_refused_before_the_closure(self, monkeypatch):
        # the 2^18 - 1 faces pass the closure budget; the simplex is
        # refused for its vertices before any face is built
        monkeypatch.setattr(zpindex.simplicial, "_columns", no_closure)
        data = {"p": 2, "vertices": 2, "perm": [1, 0], "simplices": [list(range(18))]}
        with pytest.raises(ValidationError, match=re.escape(
                f"simplex {tuple(range(18))} exceeds vertex range 0..1")):
            complex_from_json_dict(data)

    def test_float_vertex_refused_before_the_closure(self, monkeypatch):
        # 17.0 lies in range and sorts among the ints, so only its type
        # refuses the simplex, and that before any of the 2^18 - 1 faces
        monkeypatch.setattr(zpindex.simplicial, "_columns", no_closure)
        simplex = list(range(17)) + [17.0]
        data = {"p": 2, "vertices": 18, "perm": [1, 0] * 9, "simplices": [simplex]}
        with pytest.raises(ValidationError, match=re.escape(
                f"simplex {tuple(simplex)} must hold integers")):
            complex_from_json_dict(data)

    @pytest.mark.parametrize("field,value", [
        ("perm", [True, False, 2]), ("simplices", [[False], [True]]), ("p", 3.0),
        ("vertices", True), ("simplices", [[0], [1.0]]),
        ("simplices", [[0, 1], [True, 2]]), ("simplices", [[True, 2], [0, 1]]),
        ("simplices", [[0, 1], [1.0, 2]]), ("simplices", [[1.0, 2], [0, 1]]),
    ], ids=["bool-perm", "bool-simplices", "float-prime", "bool-vertices", "float-simplex",
            "bool-after-int", "bool-before-int", "float-after-int", "float-before-int"])
    def test_non_integers_refused(self, field, value):
        # with the bool or float read as 1, the edges (0, 1), (1, 2) would
        # load and only the action check would refuse them
        data = {"p": 3, "vertices": 3, "perm": [1, 2, 0], "simplices": [[0], [1], [2]]}
        complex_from_json_dict(data)
        data[field] = value
        with pytest.raises(ValidationError, match="must hold integers"):
            complex_from_json_dict(data)


@st.composite
def prime_order_perms(draw):
    """(p, perm): a random permutation made of p-cycles and fixed points."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n_cycles = draw(st.integers(1, 3))
    n_fixed = draw(st.integers(0, 3))
    labels = draw(st.permutations(range(n_cycles * p + n_fixed)))
    perm = list(range(len(labels)))
    for c in range(n_cycles):
        for i in range(p):
            perm[labels[c * p + i]] = labels[c * p + (i + 1) % p]
    return p, tuple(perm)


class TestActionProperties:
    @given(prime_order_perms())
    def test_cycles_partition_and_close(self, p_perm):
        # the oracle's cycles partition and close; on the vertices the
        # permutation moves, they are the free complex's vertex orbits
        p, perm = p_perm
        found = cycles(range(len(perm)), perm.__getitem__)
        assert sorted(v for c in found for v in c) == list(range(len(perm)))
        for c in found:
            assert all(perm[c[i]] == c[(i + 1) % len(c)] for i in range(len(c)))
        moved = [v for v in range(len(perm)) if perm[v] != v]
        x = FreeZpComplex(SimplicialComplex.from_simplices(len(perm), [(v,) for v in moved]),
                          ZpAction(p, perm))
        assert x.vertex_orbits() == cycles(moved, perm.__getitem__)

    @given(prime_order_perms(), st.data())
    def test_action_takes_exactly_cycles_of_length_1_or_p(self, p_perm, data):
        # every draw is accepted, with the oracle's cycles; a cycle of any
        # other length, at random labels, is refused
        p, perm = p_perm
        assert _cycles(ZpAction(p, perm).perm, range(len(perm))) == cycles(
            range(len(perm)), perm.__getitem__)
        length = data.draw(st.integers(2, 8).filter(lambda k: k != p))
        n = len(perm) + length
        grown = perm + tuple(len(perm) + (i + 1) % length for i in range(length))
        label = data.draw(st.permutations(range(n)))
        bad = [0] * n
        for v, image in enumerate(grown):
            bad[label[v]] = label[image]
        with pytest.raises(ValidationError, match=r"perm\^p is not the identity"):
            ZpAction(p, tuple(bad))

    @given(prime_order_perms(), st.data())
    def test_generator_freeness_check_matches_all_powers(self, p_perm, data):
        p, perm = p_perm
        seeds = data.draw(st.lists(
            st.sets(st.integers(0, len(perm) - 1), min_size=1, max_size=3), max_size=4))
        # Close the seeds under the action so that it is simplicial.
        closed = set()
        for s in seeds:
            for _ in range(p):
                closed.add(tuple(sorted(s)))
                s = {perm[v] for v in s}
        cx = SimplicialComplex.from_simplices(len(perm), closed)
        expect_fixed = fixed_by_some_power(perm, p, list(cx.simplices()))
        try:
            FreeZpComplex(cx, ZpAction(p, perm))
            rejected = False
        except ValidationError as exc:
            assert "not free" in str(exc)
            rejected = True
        assert rejected == expect_fixed


@st.composite
def free_perms(draw):
    """(p, perm): a random permutation made of p-cycles only."""
    p = draw(st.sampled_from([2, 3, 5]))
    labels = draw(st.permutations(range(draw(st.integers(1, 3)) * p)))
    perm = list(range(len(labels)))
    for c in range(0, len(labels), p):
        for i in range(p):
            perm[labels[c + i]] = labels[c + (i + 1) % p]
    return p, tuple(perm)


@st.composite
def simplex_families(draw):
    """(n, family): up to 8 vertex lists on n <= 7 vertices, each unsorted
    and possibly repeating a vertex."""
    n = draw(st.integers(1, 7))
    vertex = st.integers(0, n - 1)
    family = draw(st.lists(st.lists(vertex, min_size=1, max_size=n + 1), max_size=8))
    return n, family


# Three families that close to the triangle on 0, 1, 2, listing the faces
# that are not maximal in different ways.
SAME_CLOSURE = ((3, [(0, 1, 2)]), (3, [(0,), (1, 2), (0, 1, 2)]), (3, [(0,), (0, 1, 2)]))


class TestFaceRelationProperties:
    @given(simplex_families())
    def test_closure_matches_brute_force(self, n_family):
        n, family = n_family
        cx = SimplicialComplex.from_simplices(n, family)
        assert set(cx.simplices()) == brute_force_closure(family)

    @given(simplex_families())
    @example(SAME_CLOSURE[0])
    @example(SAME_CLOSURE[1])
    @example(SAME_CLOSURE[2])
    def test_maximal_matches_brute_force(self, n_family):
        n, family = n_family
        cx = SimplicialComplex.from_simplices(n, family)
        assert cx.maximal_simplices() == brute_force_maximal(cx.simplices())

    def test_maximal_record_is_neither_compared_nor_hashed(self):
        first, *others = (SimplicialComplex.from_simplices(n, family)
                          for n, family in SAME_CLOSURE)
        for cx in others:
            assert cx == first and hash(cx) == hash(first)
        object.__setattr__(first, "_maximal", ())
        assert first == others[0] and hash(first) == hash(others[0])
        assert repr(first) == repr(others[0])

    @given(simplex_families())
    def test_maximal_simplices_close_back(self, n_family):
        n, family = n_family
        cx = SimplicialComplex.from_simplices(n, family)
        assert SimplicialComplex.from_simplices(n, cx.maximal_simplices()) == cx

    @given(simplex_families(), st.data())
    def test_closure_ignores_order_repeats_and_faces(self, n_family, data):
        # the closure gathers facets in insertion order; neither the order of
        # the given simplices nor repeats or faces among them may reach the
        # levels or the maximal record
        n, family = n_family
        cx = SimplicialComplex.from_simplices(n, family)
        some = st.lists(st.sampled_from(family), max_size=3) if family else st.just([])
        repeats = data.draw(some, label="repeats")
        faces = [data.draw(st.sets(st.sampled_from(s), min_size=1), label="face")
                 for s in data.draw(some, label="faces of")]
        mixed = [data.draw(st.permutations(s)) for s in [*family, *repeats, *map(list, faces)]]
        other = SimplicialComplex.from_simplices(n, data.draw(st.permutations(mixed)))
        assert other.by_dim == cx.by_dim
        assert other.maximal_simplices() == cx.maximal_simplices()


class TestHomologyProperties:
    """Betti numbers with clearing equal dense elimination over every column."""

    @given(simplex_families(), st.sampled_from([2, 3, 5]), st.booleans())
    # An odd cycle: over an odd field, a boundary with every face sign +1
    # has other ranks on it (on joins of discrete sets it has the same).
    @example((3, [[0, 1], [1, 2], [0, 2]]), 3, False)
    def test_matches_dense_elimination(self, n_family, coeff, reduced):
        n, family = n_family
        cx = SimplicialComplex.from_simplices(n, family)
        oracle = betti_by_elimination([list(level) for level in cx.by_dim], coeff)
        if reduced and oracle:
            oracle[0] -= 1
        assert homology(cx, coeff, reduced=reduced).betti == tuple(oracle)
