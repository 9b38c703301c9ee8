import json
import math
import re

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oracles import (
    action_ok,
    betti_by_elimination,
    brute_force_closure,
    brute_force_maximal,
    complex_ok,
    cycles,
    fixed_by_some_power,
    vertex_map_problems,
)
from zpindex.errors import ValidationError
from zpindex.simplicial import (
    FreeZpComplex,
    SimplicialComplex,
    ZpAction,
    barycentric_subdivide,
    complex_from_json_dict,
    complex_to_json_dict,
    e_n_zp,
    homology,
    join,
    join_power,
    make_discrete_zp,
    shift_orbits,
    subdivide_complex,
)
from zpindex.verify import check_vertex_map


def assert_valid(x: FreeZpComplex):
    # re-run the structural invariants explicitly
    FreeZpComplex(x.complex, x.action)
    SimplicialComplex(x.complex.vertex_count, x.complex.by_dim)


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

    def test_freeness_all_powers(self):
        x = make_discrete_zp(5)
        for a in range(1, 5):
            perm = x.action.power(a)
            assert all(perm[v] != v for v in range(5))

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
        cx = SimplicialComplex.from_simplices(2, [(0, 1)])
        sd, _ = subdivide_complex(cx)
        assert sd.f_vector() == (3, 2)

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
    def test_missing_face_rejected(self):
        with pytest.raises(ValidationError):
            SimplicialComplex(3, [[(0,), (1,)], [(0, 1), (0, 2)]])

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


class TestLevelChecks:
    """Each check of the two constructors refuses its input on its own and
    names the first offending simplex."""

    @pytest.mark.parametrize("vertex_count,by_dim,message", [
        (3, [[(0,), (1,)], [[0, 1]]], "simplex [0, 1] is not a tuple"),
        (3, [[(0,), (1,), (2,)], [(0, 1), (2,)]], "simplex (2,) filed under dimension 1"),
        (3, [[(0,), (1,), (2,)], [(0, 1), (2, 1)]],
         "simplex (2, 1) is not a sorted duplicate-free tuple"),
        (3, [[(0,), (1,), (2,)], [(0, 1), (1, 1)]],
         "simplex (1, 1) is not a sorted duplicate-free tuple"),
        (3, [[(-1,), (0,), (1,)]], "simplex (-1,) exceeds vertex range 0..2"),
        (3, [[(0,), (1,)], [(0, 1), (1, 3)]], "simplex (1, 3) exceeds vertex range 0..2"),
        (3, [[(0,), (2,), (1,)]], "dimension 0 is not sorted/duplicate-free at (1,)"),
        (3, [[(0,), (1,), (1,)]], "dimension 0 is not sorted/duplicate-free at (1,)"),
        (3, [[(0,), (1,)], [(0, 1), (0, 2)]], "face (2,) of (0, 2) missing"),
        (3, [[(0,), (1,)], []], "top dimension level is empty"),
        (2, [[(0.5,), (1,)]], "simplex (0.5,) must hold integers"),
        (2, [[(False,), (True,)], [(False, True)]],
         "simplex (False,) must hold integers"),
        (2.7, [[(0,), (1,)]], "vertex count 2.7 must be a nonnegative integer"),
        (True, [[(0,)]], "vertex count True must be a nonnegative integer"),
        (-1, [], "vertex count -1 must be a nonnegative integer"),
    ], ids=["list-simplex", "misfiled-dimension", "unsorted-tuple", "repeated-vertex",
            "negative-vertex", "vertex-beyond-count", "unsorted-level", "repeated-level-entry",
            "missing-facet", "empty-top-level", "float-vertex", "bool-vertices",
            "float-vertex-count", "bool-vertex-count", "negative-vertex-count"])
    def test_complex_check_refuses(self, vertex_count, by_dim, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            SimplicialComplex(vertex_count, by_dim)

    def test_closure_refuses_vertices_that_do_not_sort(self):
        with pytest.raises(ValidationError, match="simplices must hold integers"):
            SimplicialComplex.from_simplices(2, [("a",), (0,)])

    @pytest.mark.parametrize("vertex_count,simplices,p,perm,message", [
        (2, [(0, 1)], 2, (1, 0, 3, 2), "permutation length differs from vertex count"),
        (4, [(0, 1), (2,), (3,)], 2, (2, 3, 0, 1),
         "action is not simplicial: image of (0, 1) missing"),
        (4, [(0, 2), (1, 2), (3,)], 2, (1, 0, 3, 2),
         "action is not simplicial: image of (0, 2) missing"),
        (2, [(0, 1)], 2, (1, 0), "action is not free: (0, 1) is setwise fixed"),
        (3, [(0,), (1,), (2,)], 2, (1, 0, 2), "action is not free: (2,) is setwise fixed"),
        (2, [(0,), (1,)], 2, (True, False), "perm must hold integers"),
        (2, [(0,), (1,)], 2.0, (1, 0), "p=2.0 is not prime"),
    ], ids=["perm-length", "non-simplicial-vertex-image", "non-simplicial-edge-image",
            "fixed-edge", "fixed-vertex", "bool-perm", "float-prime"])
    def test_action_check_refuses(self, vertex_count, simplices, p, perm, message):
        cx = SimplicialComplex.from_simplices(vertex_count, simplices)
        with pytest.raises(ValidationError, match=re.escape(message)):
            FreeZpComplex(cx, ZpAction(p, perm))


@st.composite
def damaged_complexes(draw):
    """(vertex_count, by_dim): a valid complex with at most one drawn change,
    often one that only a single check can see."""
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
        # a well-formed simplex filed in order: only the face check can see it
        s = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
        while len(by_dim) < len(s):
            by_dim.append([])
        by_dim[len(s) - 1] = sorted(set(by_dim[len(s) - 1]) | {s})
    elif change == "unsort" and len(by_dim) > 1:
        # a copy of an edge, reversed or with a repeated vertex, filed in
        # order: only the increasing-vertices check can see it
        level = by_dim[1]
        s = level[draw(st.integers(0, len(level) - 1))]
        level.append(s[::-1] if draw(st.booleans()) else s[:1] + s[:-1])
        level.sort()
    elif change == "out of range":
        # a vertex below 0 or at n filed in order: only the range check can see it
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
    """The per-level column checks refuse exactly what a check of every
    simplex on its own refuses, and report the same vertex-map problems."""

    @settings(max_examples=400)
    @given(damaged_complexes())
    def test_complex_refused_iff_oracle_refuses(self, case):
        n, by_dim = case
        if complex_ok(n, by_dim):
            assert SimplicialComplex(n, by_dim).by_dim == tuple(map(tuple, by_dim))
        else:
            with pytest.raises(ValidationError):
                SimplicialComplex(n, by_dim)

    @settings(max_examples=300)
    @given(acted_complexes())
    def test_action_refused_iff_oracle_refuses(self, case):
        cx, p, perm = case
        if action_ok(cx.vertex_count, cx.by_dim, perm):
            FreeZpComplex(cx, ZpAction(p, perm))
        else:
            with pytest.raises(ValidationError):
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

    @pytest.mark.parametrize("field,value", [
        ("perm", [True, False]), ("simplices", [[False], [True]]), ("p", 2.0),
        ("vertices", True), ("simplices", [[0], [1.0]]),
    ], ids=["bool-perm", "bool-simplices", "float-prime", "bool-vertices", "float-simplex"])
    def test_non_integers_refused(self, field, value):
        data = {"p": 2, "vertices": 2, "perm": [1, 0], "simplices": [[0], [1]]}
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
        # the orbit walk lists the oracle's cycles, which partition and close
        _, perm = p_perm
        found = cycles(range(len(perm)), perm.__getitem__)
        assert sorted(v for c in found for v in c) == list(range(len(perm)))
        for c in found:
            assert all(perm[c[i]] == c[(i + 1) % len(c)] for i in range(len(c)))
        walked = shift_orbits(range(len(perm)), perm.__getitem__, lambda v: None, "{}")
        assert list(walked) == found

    @given(prime_order_perms(), st.integers(0, 20), st.integers(0, 20))
    def test_powers_compose(self, p_perm, a, b):
        action = ZpAction(*p_perm)
        pa, pb = action.power(a), action.power(b)
        assert tuple(pa[pb[v]] for v in range(len(pb))) == action.power(a + b)

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


class TestFaceRelationProperties:
    @given(simplex_families())
    def test_closure_matches_brute_force(self, n_family):
        n, family = n_family
        cx = SimplicialComplex.from_simplices(n, family)
        assert cx.simplex_set() == brute_force_closure(family)

    @given(simplex_families())
    def test_maximal_matches_brute_force(self, n_family):
        n, family = n_family
        cx = SimplicialComplex.from_simplices(n, family)
        assert cx.maximal_simplices() == brute_force_maximal(cx.simplices())

    @given(simplex_families())
    def test_maximal_simplices_close_back(self, n_family):
        n, family = n_family
        cx = SimplicialComplex.from_simplices(n, family)
        assert SimplicialComplex.from_simplices(n, cx.maximal_simplices()) == cx


class TestHomologyProperties:
    """Betti numbers with clearing equal dense elimination over every column."""

    @given(simplex_families(), st.sampled_from([2, 3, 5]), st.booleans())
    def test_matches_dense_elimination(self, n_family, coeff, reduced):
        n, family = n_family
        cx = SimplicialComplex.from_simplices(n, family)
        oracle = betti_by_elimination([list(level) for level in cx.by_dim], coeff)
        if reduced and oracle:
            oracle[0] -= 1
        assert homology(cx, coeff, reduced=reduced).betti == tuple(oracle)
