"""Exhaustive backtracking search for equivariant simplicial vertex maps.

One representative vertex per source orbit is assigned freely; the rest of
the orbit is forced by equivariance.  Candidate target vertices are tried in
ascending index and orbits in ascending representative order, so the first
witness found is canonical and the search is deterministic.  A negative
answer means full exhaustion of the assignment tree; running out of budget
raises instead (an inconclusive run must never masquerade as a disproof).

Each orbit's candidates are the set bits of an int bitset, its domain: the
AND of closed neighbourhoods of placed images.  The vertex at slot i of an
orbit maps to T^i t, t the image of its representative, and the target's
edges are T-invariant; so an edge from it to a placed u asks for t in
N[T^{-i} assignment[u]] = N[assignment[w]], where w = T^{-i} u is the placed
vertex at slot (slot_u - i) mod p of u's orbit.  An edge between slots i < j
of one orbit asks for t in shifted[j - i] = {t : T^(j-i) t in N[t]}.  So each
candidate maps every source edge onto an edge or a vertex; on a target flag
up to the source's simplex size (`_flag_up_to`) it maps every simplex onto a
clique, so onto a simplex.  Other targets look larger simplices up in a table.
Of each simplex orbit only the members that hold the representative of their
last-placed vertex orbit are checked, so no action is applied to a simplex.

`nodes` counts every (orbit, candidate) pair of the assignment tree,
including the candidates a domain excludes: those are added arithmetically
from the rank of each tried vertex among the target vertices.  So the node
count, the first witness and the node at which a budget raises
(count = budget + 1) are those of plain place-and-check backtracking over
every target vertex.  A witness then sends each cycle of source labels that
lies in no simplex to the cycle of the least target label of its length.

The walk is one loop over the orbit index, with no recursion, so a source
of any number of orbits is searched.  Descending from an orbit pushes the
rest of its domain and the rank of its placed vertex; an exhausted orbit
charges the target vertices above that rank and pops its parent's pair to
resume it.  An exhausted orbit's images are left as they were: the domains
and checks of later orbits, and the post-pass, read an orbit's images only
after it is placed again.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import chain
from operator import and_, rshift

from .errors import BudgetExceeded, ValidationError, whole
from .simplicial import FreeZpComplex, SimplicialComplex, _columns, _cycles

DEFAULT_BUDGET = 5_000_000


def _closed_neighbourhoods(cx: SimplicialComplex) -> list[int]:
    """Per vertex label v, N[v] as a bitset: v and its 1-skeleton neighbours."""
    closed = [0] * cx.vertex_count
    for (v,) in chain.from_iterable(cx.by_dim[:1]):
        closed[v] = 1 << v
    for a, b in chain.from_iterable(cx.by_dim[1:2]):
        closed[a] |= 1 << b
        closed[b] |= 1 << a
    return closed


def _flag_up_to(cx: SimplicialComplex, size: int) -> bool:
    """Whether every clique of at most `size` vertices of cx's 1-skeleton is
    a simplex, counted, not listed.  By induction on k >= 2 (the 2-cliques
    are the edges): if every k-clique is a simplex, each (k+1)-clique is
    counted once, from the simplex s of its k lowest vertices, among the
    popcount((AND of N[v], v in s) >> (max s + 1)) common neighbours above
    s; and every simplex is a clique.  So the (k+1)-cliques are simplices
    iff those counts sum to the number of simplices of k+1 vertices (0 above
    the top).  A collapsed image of a simplex is a smaller clique."""
    closed = _closed_neighbourhoods(cx)
    levels = (*cx.by_dim, ())
    for d in range(1, min(size - 1, len(cx.by_dim))):
        cols = _columns(levels[d])
        common = reduce(partial(map, and_), [map(closed.__getitem__, col) for col in cols])
        above = map(rshift, common, map((1).__add__, cols[-1]))
        if sum(map(int.bit_count, above)) != len(levels[d + 1]):
            return False
    return True


def find_equivariant_vertex_map(
    source: FreeZpComplex,
    target: FreeZpComplex,
    budget: int = DEFAULT_BUDGET,
) -> tuple[tuple[int, ...] | None, int]:
    """Return (vertex_map, nodes_visited) or (None, nodes_visited).

    The map sends every source simplex to a target simplex (images may
    collapse) and intertwines the two actions.
    """
    if source.p != target.p:
        raise ValidationError(f"mismatched primes {source.p} != {target.p}")
    whole(budget, "budget")
    p = source.p
    target_vertices = [t for level in target.complex.by_dim[:1] for (t,) in level]
    width = len(target_vertices)
    rank = {t: r for r, t in enumerate(target_vertices, 1)}

    orbits = source.vertex_orbits()
    orbit_of, slot_of = {}, {}
    for k, orbit in enumerate(orbits):
        for i, v in enumerate(orbit):
            orbit_of[v], slot_of[v] = k, i

    # Each source edge {u, v} from an earlier orbit to orbit k becomes the
    # placed vertex w = T^{-slot_v} u, and each edge inside orbit k its shift
    # (see above).  On a target that is not flag, every other simplex becomes
    # checkable once its last-assigned orbit k is placed.  It is checked when
    # it holds orbits[k][0]; each simplex orbit has such a member, and the
    # assignment is equivariant and the target T-invariant, so T s maps onto
    # a target simplex iff s does.
    flag = _flag_up_to(target.complex, source.dim + 1)
    pairs: list[set[int]] = [set() for _ in orbits]
    shifts: list[set[int]] = [set() for _ in orbits]
    ready: list[list[tuple[int, ...]]] = [[] for _ in orbits]
    for s in chain.from_iterable(source.complex.by_dim[1:2 if flag else None]):
        k = max(map(orbit_of.__getitem__, s))
        if len(s) > 2:
            if orbits[k][0] in s:
                ready[k].append(s)
        elif orbit_of[s[0]] == orbit_of[s[1]]:
            shifts[k].add((slot_of[s[1]] - slot_of[s[0]]) % p)
        else:
            u, v = sorted(s, key=orbit_of.__getitem__)
            pairs[k].add(orbits[orbit_of[u]][(slot_of[u] - slot_of[v]) % p])

    tperm = target.action.perm
    tset = frozenset(target.complex.simplices()) if any(ready) else frozenset()
    closed = _closed_neighbourhoods(target.complex)
    everything = sum(1 << t for t in target_vertices)
    shifted = {}
    for shift in set().union(*shifts):
        moved = target_vertices
        for _ in range(shift):
            moved = map(tperm.__getitem__, moved)
        shifted[shift] = sum(1 << t for t, u in zip(target_vertices, moved) if closed[t] >> u & 1)
    start = [reduce(and_, map(shifted.__getitem__, needed), everything) for needed in shifts]

    assignment = [-1] * source.complex.vertex_count
    exceeded = f"map search exceeded budget of {budget} assignments"
    nodes, k, counted, placed = 0, 0, 0, []  # placed: each placed orbit's (domain, rank)
    while k < len(orbits):
        if not counted:  # entering orbit k: a resumed orbit has counted its placed vertex
            domain = start[k]
            for w in pairs[k]:
                domain &= closed[assignment[w]]
        orbit, checks = orbits[k], ready[k]
        while domain:
            low = domain & -domain
            domain ^= low
            t = low.bit_length() - 1
            r = rank[t]
            nodes += r - counted
            counted = r
            if nodes > budget:
                raise BudgetExceeded(exceeded, count=budget + 1)
            cur = t
            for v in orbit:
                assignment[v] = cur
                cur = tperm[cur]
            if not checks or all(tuple(sorted({assignment[v] for v in s})) in tset for s in checks):
                placed.append((domain, counted))
                k, counted = k + 1, 0
                break
        else:
            nodes += width - counted
            if nodes > budget:
                raise BudgetExceeded(exceeded, count=budget + 1)
            if not k:
                return None, nodes
            k -= 1
            domain, counted = placed.pop()
    least = {len(c): c for c in reversed(_cycles(tperm, range(len(tperm))))}
    for cycle in _cycles(source.action.perm, range(len(assignment))):
        if assignment[cycle[0]] < 0:  # the i-th label goes to the i-th
            if len(cycle) not in least:
                raise ValidationError(f"source label {cycle[0]} lies in a cycle of length "
                                      f"{len(cycle)}, and no target label does")
            for v, t in zip(cycle, least[len(cycle)]):
                assignment[v] = t
    return tuple(assignment), nodes
