"""The equivariant vertex-map search against plain backtracking.

The search intersects neighbourhood bitsets in place of trying every
target vertex, but it must walk the same tree: the same first witness, the
same node count and the same node at which a budget raises."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import OverBudget, is_flag, plain_vertex_map_search
from zpindex.cli import main
from zpindex.cubical import GridSpec, build_pp_xm, build_pp_yz, cubical_to_simplicial
from zpindex.errors import BudgetExceeded
from zpindex.search import _flag_up_to, find_equivariant_vertex_map
from zpindex.simplicial import (
    FreeZpComplex,
    SimplicialComplex,
    ZpAction,
    barycentric_subdivide,
    complex_to_json_dict,
    e_n_zp,
    join,
    make_discrete_zp,
)
from zpindex.subshifts import as_free_zp_complex, make_sigma_m, periodic_points
from zpindex.verify import check_vertex_map


def x1(N, p, G):
    return cubical_to_simplicial(build_pp_xm(N, Fraction(1, G), 1, p, GridSpec(N, G)))


def z(p, G, kind="Z"):
    return cubical_to_simplicial(build_pp_yz(kind, p, GridSpec(1, G, True)))


def triangle_boundary(p):
    """The 3-cycle on one vertex orbit: free for p = 3, with every edge inside
    the orbit, so each edge meets its last-placed orbit twice."""
    return FreeZpComplex(SimplicialComplex.from_simplices(3, [(0, 1), (1, 2), (0, 2)]),
                         ZpAction(p, (1, 2, 0)))


def periodic(p):
    return as_free_zp_complex(periodic_points(make_sigma_m(1), p))


FACTORS = {2: (make_discrete_zp, periodic),
           3: (make_discrete_zp, periodic, triangle_boundary, triangle_boundary)}
TRIANGULATIONS = {2: [lambda: x1(1, 2, 2), lambda: x1(1, 2, 3), lambda: z(2, 2), lambda: z(2, 3)],
                  3: [lambda: x1(1, 3, 3), lambda: z(3, 2)]}


def simplex_orbit(x, s):
    orbit = [s]
    while len(orbit) < x.p:
        orbit.append(x.action.apply(orbit[-1]))
    return tuple(sorted(orbit))


@st.composite
def spaces(draw, p, lean=1):
    """A join of 1-3 discrete, periodic-orbit or (p = 3, weighted twice)
    triangle-boundary factors, maybe subdivided once, or a small X_1 or Z
    triangulation; then maybe cut down to a random invariant subcomplex
    (which leaves vertex labels unused) and maybe relabelled at random.
    The join, and leaving it unsubdivided, are each drawn `lean` times as
    often as the other way."""
    towards = st.sampled_from([True] * lean + [False])
    if draw(towards):
        factors = draw(st.lists(st.sampled_from(FACTORS[p]), min_size=1, max_size=3))
        x = factors[0](p)
        for factor in factors[1:]:
            x = join(x, factor(p))
        if not draw(towards):
            x = barycentric_subdivide(x)
    else:
        x = draw(st.sampled_from(TRIANGULATIONS[p]))()
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        orbits = sorted({simplex_orbit(x, s) for s in x.complex.maximal_simplices()})
        kept = rng.sample(orbits, rng.randint(1, len(orbits)))
        cx = SimplicialComplex.from_simplices(x.complex.vertex_count, [s for o in kept for s in o])
        x = FreeZpComplex(cx, x.action)
    if draw(st.booleans()):
        label = list(range(x.complex.vertex_count))
        rng.shuffle(label)
        perm = [0] * len(label)
        for v, image in enumerate(x.action.perm):
            perm[label[v]] = label[image]
        cx = SimplicialComplex.from_simplices(
            len(label), [[label[v] for v in s] for s in x.complex.maximal_simplices()])
        x = FreeZpComplex(cx, ZpAction(p, tuple(perm)))
    return x


def meets_top_orbit_twice(x):
    """Whether some simplex the search checks, one that is not an edge
    between two vertex orbits, holds two vertices of its last-placed orbit."""
    orbit_of = {v: k for k, orbit in enumerate(x.vertex_orbits()) for v in orbit}
    for s in x.complex.simplices():
        ks = sorted(map(orbit_of.__getitem__, s))
        if len(ks) > 1 and ks[-1] == ks[-2]:
            return True
    return False


def outcome(search, source, target, budget):
    try:
        return search(source, target, budget)
    except (BudgetExceeded, OverBudget) as exc:
        return "over budget", exc.count


@st.composite
def search_cases(draw):
    p = draw(st.sampled_from([2, 3]))
    budget = draw(st.one_of(st.integers(0, 5_000), st.just(5_000)))
    # Only an unsubdivided join with a triangle boundary has a checked simplex
    # that meets its last-placed vertex orbit twice (subdivision leaves each
    # simplex one vertex per orbit), so p = 3 sources lean that way.
    return draw(spaces(p, lean=7 if p == 3 else 1)), draw(spaces(p)), budget


class TestAgainstPlainBacktracking:
    @settings(max_examples=150)
    @given(search_cases())
    def test_same_map_nodes_and_budget_raise(self, case):
        source, target, budget = case
        event(f"source meets its top vertex orbit twice: {meets_top_orbit_twice(source)}")
        event(f"target flag up to the source's simplex size: "
              f"{is_flag(target.complex, source.dim + 1)}")
        found = outcome(find_equivariant_vertex_map, source, target, budget)
        assert found == outcome(plain_vertex_map_search, source, target, budget)
        if isinstance(found[0], tuple):
            event(f"witness for labels in no simplex: "
                  f"{len(source.complex.by_dim[0]) < source.complex.vertex_count}")
            assert check_vertex_map(source, target, found[0]) == []


def test_source_without_simplices_maps_every_label():
    source = FreeZpComplex(SimplicialComplex.from_simplices(3, []), ZpAction(3, (1, 2, 0)))
    target = e_n_zp(0, 3)
    vertex_map, nodes = find_equivariant_vertex_map(source, target)
    assert nodes == 0 and check_vertex_map(source, target, vertex_map) == []


def test_long_source_without_recursion():
    # 1,200 vertex orbits, one level each: deeper than Python's call stack
    source = FreeZpComplex(SimplicialComplex(2400, [[(v,) for v in range(2400)]]),
                           ZpAction(2, tuple(v ^ 1 for v in range(2400))))
    target = make_discrete_zp(2)
    assert find_equivariant_vertex_map(source, target) == ((0, 1) * 1200, 1200)
    with pytest.raises(BudgetExceeded) as raised:
        find_equivariant_vertex_map(source, target, budget=1199)
    assert raised.value.count == 1200


def test_edges_inside_an_orbit_are_checked():
    # every edge of the 3-cycle joins two slots of its one vertex orbit, so
    # only the shift bitsets keep it from landing on three lone vertices
    source = triangle_boundary(3)
    for target, expected in ((make_discrete_zp(3), None), (source, (0, 1, 2))):
        found = find_equivariant_vertex_map(source, target)
        assert found[0] == expected
        assert found == plain_vertex_map_search(source, target, 100)


# The refute searches of the benchmark, at canonical labels: every one
# exhausts, and its node count is that of the full assignment tree.
REFUTE = {
    "e2p2-depth1-e1p2": (lambda: barycentric_subdivide(e_n_zp(2, 2)), lambda: e_n_zp(1, 2),
                         124_372),
    "e1p3-x1n2p3g2": (lambda: e_n_zp(1, 3), lambda: x1(2, 3, 2), 254_520),
    "e2p3-x1n2p3g2": (lambda: e_n_zp(2, 3), lambda: x1(2, 3, 2), 254_520),
    "e1p5-x1n1p5g3": (lambda: e_n_zp(1, 5), lambda: x1(1, 5, 3), 57_840),
    "e1p5-x1n1p5g4": (lambda: e_n_zp(1, 5), lambda: x1(1, 5, 4), 1_041_420),
}


@pytest.mark.parametrize("name", sorted(REFUTE))
def test_refute_node_counts(name):
    source, target, nodes = REFUTE[name]
    assert find_equivariant_vertex_map(source(), target()) == (None, nodes)


@pytest.mark.parametrize("p", [2, 3])
def test_every_simplex_orbit_is_checked(p):
    # E_2(Z_p) less one orbit of triangles keeps every edge, so it is not a
    # flag complex and only the triangle checks tell a map into E_2(Z_p)
    # from a map into it.  Leaving any orbit's check out finds a map there.
    model = e_n_zp(2, p)
    triangles = model.complex.by_dim[2]
    for orbit in sorted({simplex_orbit(model, s) for s in triangles}):
        cx = SimplicialComplex.from_simplices(
            model.complex.vertex_count, [s for s in triangles if s not in orbit])
        target = FreeZpComplex(cx, model.action)
        assert cx.by_dim[1] == model.complex.by_dim[1]
        assert (find_equivariant_vertex_map(model, target)
                == plain_vertex_map_search(model, target, 5_000))


# An edge-only search (ROADMAP item 3) reads a target's simplices off its
# edges, which is sound only on flag complexes: every target that `coind`
# and `ind` build must be one.
FLAG_TARGETS = {
    **{f"e{n}p{p}": (lambda n=n, p=p: e_n_zp(n, p)) for n in range(4) for p in (2, 3, 5)},
    **{f"e{n}p{p}-depth{d}": (lambda n=n, p=p, d=d: subdivided(e_n_zp(n, p), d))
       for n in (1, 2) for p in (2, 3, 5) for d in (1, 2)},
    "x1-n2p3g2": lambda: x1(2, 3, 2),
    "x1-n1p5g3": lambda: x1(1, 5, 3),
    "x1-n1p5g4": lambda: x1(1, 5, 4),
    "x1-n1p7g2": lambda: x1(1, 7, 2),
    "z-p3g4": lambda: z(3, 4),
    "z-p3g2": lambda: z(3, 2),
    "z-p5g2": lambda: z(5, 2),
    "y-p5g3": lambda: z(5, 3, "Y"),
}


def subdivided(x, depth):
    for _ in range(depth):
        x = barycentric_subdivide(x)
    return x


@pytest.mark.parametrize("name", sorted(FLAG_TARGETS))
def test_targets_are_flag(name):
    cx = FLAG_TARGETS[name]().complex
    assert is_flag(cx) and _flag_up_to(cx, cx.dim + 1)


def less_a_triangle_orbit(p, n=2):
    """E_n(Z_p), n >= 2, less its first orbit of triangles and the simplices
    that hold one: every edge stays."""
    model = e_n_zp(n, p)
    orbit = simplex_orbit(model, model.complex.by_dim[2][0])
    return SimplicialComplex.from_simplices(
        model.complex.vertex_count,
        [s for s in model.complex.maximal_simplices() if not any(set(t) <= set(s) for t in orbit)])


@pytest.mark.parametrize("build", [lambda: triangle_boundary(3).complex,
                                   lambda: less_a_triangle_orbit(2),
                                   lambda: less_a_triangle_orbit(3)],
                         ids=["triangle-boundary", "e2p2-less-a-triangle-orbit",
                              "e2p3-less-a-triangle-orbit"])
def test_non_flag_complexes_are_found(build):
    cx = build()
    assert not is_flag(cx) and not is_flag(cx, 3)
    assert not _flag_up_to(cx, 3) and _flag_up_to(cx, 2)


@settings(max_examples=200)
@given(st.sampled_from([2, 3]).flatmap(spaces), st.sampled_from([2, 3, 4]))
def test_clique_count_matches_networkx(x, size):
    flag = is_flag(x.complex, size)
    event(f"flag up to {size} vertices: {flag}")
    assert _flag_up_to(x.complex, size) == flag


@pytest.mark.parametrize("n", [2, 3])
def test_non_flag_target_through_cli(tmp_path, capsys, n):
    # E_2(Z_3) maps into E_3(Z_3) less a triangle orbit, but not into E_2(Z_3)
    # less one; neither target is flag, so the search checks every triangle.
    source, target = e_n_zp(2, 3), FreeZpComplex(less_a_triangle_orbit(3, n), e_n_zp(n, 3).action)
    assert not _flag_up_to(target.complex, source.dim + 1)
    for name, x in (("source", source), ("target", target)):
        (tmp_path / f"{name}.json").write_text(json.dumps(complex_to_json_dict(x)))
    assert main(["search-map", "--source", str(tmp_path / "source.json"),
                 "--target", str(tmp_path / "target.json")]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    expected, _ = plain_vertex_map_search(source, target, 5_000)
    assert result["found"] == (n == 3)
    assert result.get("vertex_map") == (list(expected) if result["found"] else expected)
