"""The equivariant vertex-map search against plain backtracking.

The search intersects neighbourhood bitsets in place of trying every
target vertex, but it must walk the same tree: the same first witness, the
same node count and the same node at which a budget raises."""

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from oracles import OverBudget, plain_vertex_map_search
from zpindex.cubical import GridSpec, build_pp_xm, build_pp_yz, cubical_to_simplicial
from zpindex.errors import BudgetExceeded
from zpindex.search import find_equivariant_vertex_map
from zpindex.simplicial import (
    FreeZpComplex,
    SimplicialComplex,
    ZpAction,
    barycentric_subdivide,
    e_n_zp,
    join,
    make_discrete_zp,
)
from zpindex.subshifts import as_free_zp_complex, make_sigma_m, periodic_points


def x1(N, p, G):
    return cubical_to_simplicial(build_pp_xm(N, Fraction(1, G), 1, p, GridSpec(N, G)))


def z(p, G):
    return cubical_to_simplicial(build_pp_yz("Z", p, GridSpec(1, G, True)))


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
        assert (outcome(find_equivariant_vertex_map, source, target, budget)
                == outcome(plain_vertex_map_search, source, target, budget))


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
