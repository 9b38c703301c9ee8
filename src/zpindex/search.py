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
vertex at slot (slot_u - i) mod p of u's orbit.  Candidates in the domain are
then checked against the remaining simplices (edges inside the orbit and
every simplex of dimension 2 and up).
Of each simplex orbit only the members that hold the representative of their
last-placed vertex orbit are checked, so no action is applied to a simplex.

`nodes` counts every (orbit, candidate) pair of the assignment tree,
including the candidates a domain excludes: those are added arithmetically
from the rank of each tried vertex among the target vertices.  So the node
count, the first witness and the node at which a budget raises
(count = budget + 1) are those of plain place-and-check backtracking over
every target vertex.  A witness then sends each cycle of source labels that
lies in no simplex to the cycle of the least target label of its length.
"""

from __future__ import annotations

from .errors import BudgetExceeded, ValidationError, whole
from .simplicial import FreeZpComplex, _cycles

DEFAULT_BUDGET = 5_000_000


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
    # placed vertex w = T^{-slot_v} u (see above).  Every other simplex
    # becomes checkable once its last-assigned orbit k is placed.  It is
    # checked when it holds orbits[k][0]; each simplex orbit has such a
    # member, and the assignment is equivariant and the target T-invariant,
    # so T s maps onto a target simplex iff s does.
    pairs: list[set[int]] = [set() for _ in orbits]
    ready: list[list[tuple[int, ...]]] = [[] for _ in orbits]
    for s in source.complex.simplices():
        k = max(map(orbit_of.__getitem__, s))
        if len(s) == 2 and orbit_of[s[0]] != orbit_of[s[1]]:
            u, v = sorted(s, key=orbit_of.__getitem__)
            pairs[k].add(orbits[orbit_of[u]][(slot_of[u] - slot_of[v]) % p])
        elif len(s) > 1 and orbits[k][0] in s:
            ready[k].append(s)

    tperm = target.action.perm
    tset = frozenset(target.complex.simplices())

    # closed[a] = N[a], the closed 1-skeleton neighbourhood as a bitset over
    # target vertex indices.
    closed = [0] * len(tperm)
    everything = 0
    for t in target_vertices:
        closed[t] = 1 << t
        everything |= 1 << t
    for a, b in target.complex.by_dim[1] if target.dim >= 1 else ():
        closed[a] |= 1 << b
        closed[b] |= 1 << a

    assignment = [-1] * source.complex.vertex_count
    nodes = 0

    def over_budget():
        raise BudgetExceeded(
            f"map search exceeded budget of {budget} assignments", count=budget + 1
        )

    def extend(k: int) -> bool:
        nonlocal nodes
        if k == len(orbits):
            return True
        domain = everything
        for w in pairs[k]:
            domain &= closed[assignment[w]]
        orbit, checks = orbits[k], ready[k]
        counted = 0
        while domain:
            low = domain & -domain
            domain ^= low
            t = low.bit_length() - 1
            r = rank[t]
            nodes += r - counted
            counted = r
            if nodes > budget:
                over_budget()
            cur = t
            for v in orbit:
                assignment[v] = cur
                cur = tperm[cur]
            if all(tuple(sorted({assignment[v] for v in s})) in tset for s in checks):
                if extend(k + 1):
                    return True
        for v in orbit:
            assignment[v] = -1
        nodes += width - counted
        if nodes > budget:
            over_budget()
        return False

    if not extend(0):
        return None, nodes
    least = {len(c): c for c in reversed(_cycles(tperm, range(len(tperm))))}
    for cycle in _cycles(source.action.perm, range(len(assignment))):
        if assignment[cycle[0]] < 0:  # the i-th label goes to the i-th
            if len(cycle) not in least:
                raise ValidationError(f"source label {cycle[0]} lies in a cycle of length "
                                      f"{len(cycle)}, and no target label does")
            for v, t in zip(cycle, least[len(cycle)]):
                assignment[v] = t
    return tuple(assignment), nodes
