"""Standalone re-validation of equivariant map witnesses.

Deliberately independent of the search engine: it rebuilds the target
simplex table from the raw level data and checks the map from scratch.
Certificates are only trusted after passing this.  A face's image lies in
its maximal coface's and the target is closed under faces, so the map is
simplicial iff every maximal source simplex (the closure's record) has a
target image; none has more than dim + 1 vertices, so the table holds the
target's levels 0..dim.  Only a failure walks every source simplex, level
by level, to name each one with no target image.
"""

from __future__ import annotations

import itertools

from .simplicial import FreeZpComplex


def check_vertex_map(source: FreeZpComplex, target: FreeZpComplex,
                     vertex_map) -> list[str]:
    """Return a list of human-readable problems; empty means verified."""
    problems = []
    if source.action.p != target.action.p:
        problems.append(f"prime mismatch: {source.action.p} vs {target.action.p}")
    if len(vertex_map) != source.complex.vertex_count:
        problems.append(
            f"vertex_map length {len(vertex_map)} != source vertex count "
            f"{source.complex.vertex_count}"
        )
        return problems
    n_target = target.complex.vertex_count
    for v, t in enumerate(vertex_map):
        # type, not isinstance: a bool is no vertex index
        if type(t) is not int or not 0 <= t < n_target:
            problems.append(f"vertex {v} mapped outside target range: {t!r}")
    if problems:
        return problems

    table = set(itertools.chain.from_iterable(target.complex.by_dim[:source.dim + 1]))
    tops = map(map, itertools.repeat(vertex_map.__getitem__), source.complex.maximal_simplices())
    if not all(map(table.__contains__, map(tuple, map(sorted, map(set, tops))))):
        for s in source.complex.simplices():
            image = tuple(sorted({vertex_map[v] for v in s}))
            if image not in table:
                problems.append(f"image {image} of simplex {s} is not a target simplex")

    sp = source.action.perm
    tp = target.action.perm
    for v in range(source.complex.vertex_count):
        if vertex_map[sp[v]] != tp[vertex_map[v]]:
            problems.append(
                f"equivariance fails at vertex {v}: "
                f"map(perm({v}))={vertex_map[sp[v]]} but perm(map({v}))={tp[vertex_map[v]]}"
            )
    return problems
