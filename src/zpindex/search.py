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

A level is built when first read, so the search reads only what it uses:
the edges of both complexes, the target's levels up to the source's
dimension to count cliques and, on a target that is not flag, the source's
levels above 0 and the target's for the table.  The neighbourhood bitsets
take at least n(n+1)/2 bits on n target vertices, so past
DEFAULT_CELL_BUDGET 64-bit words they are refused before any is built.

`nodes` counts every (orbit, candidate) pair of the assignment tree,
including the candidates a domain excludes: those are added arithmetically
from the rank t + 1 of each tried vertex t among the target vertices.  So
the node count, the first witness and the node at which a budget raises
(count = budget + 1) are those of plain place-and-check backtracking over
every target vertex.  Every source label is a vertex in an orbit of p, so a
full placement is a whole vertex map.

The first orbit tries only the least vertex of each target cycle, a
symmetry step that leaves `nodes` as it was.  The target's action T
permutes the first orbit's candidates, and the rest of the walk is
T-equivariant: domains come from closed[T x] = T closed[x], the shift
bitsets and the simplex table are T-invariant, and an exhausted orbit
charges `width` either way.  So the p vertices of a target cycle head
subtrees of one node count, and all fail when the least one, m, fails.  On
returning to the first orbit from a failed m, the walk records its
subtree's nodes for each of T m, ..., T^(p-1) m, and charges them as the
first orbit passes that vertex's rank: before the next least vertex's own
node is counted and checked against the budget, and the rest at
exhaustion.  So every count the walk reads is the one plain backtracking
reads at the same point: the node count, the first witness and the budget
raise are still its own, while an exhausted tree is walked p times less.

The walk is one loop over the orbit index, with no recursion, so a source
of any number of orbits is searched.  Descending from an orbit pushes the
rest of its domain and the rank of its placed vertex; an exhausted orbit
charges the target vertices above that rank and pops its parent's pair to
resume it.  An exhausted orbit's images are left as they were: the domains
and checks of later orbits read an orbit's images only after it is placed
again.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import chain
from operator import and_, rshift

from .errors import DEFAULT_CELL_BUDGET, BudgetExceeded, ValidationError, whole
from .simplicial import FreeZpComplex, SimplicialComplex, _columns, _cycles

DEFAULT_BUDGET = 5_000_000


def _closed_neighbourhoods(cx: SimplicialComplex) -> list[int]:
    """Per vertex label v, N[v] as a bitset: v and its 1-skeleton neighbours;
    refused before any is built past DEFAULT_CELL_BUDGET words (see above)."""
    n = cx.vertex_count
    if (words := n * (n + 1) // 128) > DEFAULT_CELL_BUDGET:
        raise BudgetExceeded(f"the neighbourhood bitsets of {n} target vertices would take "
                             f"{words} words, above the budget {DEFAULT_CELL_BUDGET}")
    closed = [1 << v for v in range(n)]
    for a, b in cx.level(1):
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
    for d in range(1, min(size - 1, cx.dim + 1)):
        cols = _columns(cx.level(d))
        common = reduce(partial(map, and_), [map(closed.__getitem__, col) for col in cols])
        above = map(rshift, common, map((1).__add__, cols[-1]))
        if sum(map(int.bit_count, above)) != len(cx.level(d + 1)):
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
    width = target.complex.vertex_count

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
    walked = range(1, 2 if flag else source.dim + 1)  # the edges, or every level above 0
    for s in chain.from_iterable(map(source.complex.level, walked)):
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
    # no image has more vertices than a source simplex
    images = map(target.complex.level, range(1, source.dim + 1))
    tset = frozenset(chain(zip(range(width)), *images)) if any(ready) else frozenset()
    closed = _closed_neighbourhoods(target.complex)
    shifted = {}
    for shift in set().union(*shifts):
        moved = range(width)
        for _ in range(shift):
            moved = map(tperm.__getitem__, moved)
        shifted[shift] = sum(1 << t for t, u in enumerate(moved) if closed[t] >> u & 1)
    start = [reduce(and_, map(shifted.__getitem__, needed), (1 << width) - 1) for needed in shifts]

    # The first orbit tries only the least vertex of each target cycle; due[t]
    # holds the nodes of the failed subtree that vertex t heads, once its
    # cycle's least vertex has failed (see above).
    if orbits:
        start[0] &= sum(1 << cycle[0] for cycle in _cycles(tperm))
    due = [0] * width

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
            r = low.bit_length()  # the rank of vertex r - 1
            nodes += r - counted
            if not k:  # passing rotations of failed minima: charge their subtrees
                nodes += sum(due[counted:r])
                mark = nodes
            counted = r
            if nodes > budget:
                raise BudgetExceeded(exceeded, count=budget + 1)
            cur = r - 1
            for v in orbit:
                assignment[v] = cur
                cur = tperm[cur]
            if not checks or all(tuple(sorted({assignment[v] for v in s})) in tset for s in checks):
                placed.append((domain, counted))
                k, counted = k + 1, 0
                break
        else:
            nodes += width - counted
            if not k:
                nodes += sum(due[counted:])
            if nodes > budget:
                raise BudgetExceeded(exceeded, count=budget + 1)
            if not k:
                return None, nodes
            k -= 1
            domain, counted = placed.pop()
            if not k:  # m failed: each of its p - 1 rotations heads as large a failure
                t, below = assignment[orbits[0][0]], nodes - mark
                for _ in range(p - 1):
                    t = tperm[t]
                    due[t] = below
    return tuple(assignment), nodes
