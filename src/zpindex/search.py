"""Exhaustive backtracking search for equivariant simplicial vertex maps.

One representative vertex per source orbit is assigned freely; the rest of
the orbit is forced by equivariance.  Candidate target vertices are tried in
ascending index and orbits in ascending representative order, so the first
witness found is canonical and the search is deterministic.  A negative
answer means full exhaustion of the assignment tree; running out of budget
raises instead (an inconclusive run must never masquerade as a disproof).
"""

from __future__ import annotations

from .errors import BudgetExceeded, ValidationError
from .simplicial import FreeZpComplex

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
    if budget < 0:
        raise ValidationError(f"budget {budget} must be nonnegative")
    p = source.p
    if source.is_empty():
        return (), 0
    target_vertices = [s[0] for s in target.complex.by_dim[0]] if not target.is_empty() else []
    if not target_vertices:
        return None, 0

    orbits = source.vertex_orbits()
    orbit_of = {}
    for k, orbit in enumerate(orbits):
        for v in orbit:
            orbit_of[v] = k

    # Simplices become checkable once their last-assigned orbit is placed.
    ready: list[list[tuple[int, ...]]] = [[] for _ in orbits]
    for s in source.complex.simplices():
        ready[max(orbit_of[v] for v in s)].append(s)

    tperm = target.action.perm
    tset = target.complex.simplex_set()

    assignment = [-1] * source.complex.vertex_count
    nodes = 0

    def place(k: int, t: int) -> bool:
        orbit = orbits[k]
        cur = t
        for v in orbit:
            assignment[v] = cur
            cur = tperm[cur]
        for s in ready[k]:
            image = tuple(sorted({assignment[v] for v in s}))
            if image not in tset:
                return False
        return True

    def unplace(k: int):
        for v in orbits[k]:
            assignment[v] = -1

    def extend(k: int) -> bool:
        nonlocal nodes
        if k == len(orbits):
            return True
        for t in target_vertices:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(
                    f"map search exceeded budget of {budget} assignments", count=nodes
                )
            if place(k, t):
                if extend(k + 1):
                    return True
            unplace(k)
        return False

    if extend(0):
        return tuple(assignment), nodes
    return None, nodes
