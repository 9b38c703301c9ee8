"""Spans around the public zpindex functions, from outside the program.

`install` replaces each probed function at the module attribute (or class
attribute) through which the CLI and `certificates` call it, so the program's
own files stay untouched.  A span records its name, parent, start and end and
a few counts; spans stay in memory until `write`.  A layer's self time is its
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

import zpindex.certificates
import zpindex.cli
import zpindex.fplinalg
import zpindex.subshifts
from zpindex.errors import BudgetExceeded
from zpindex.simplicial import SimplicialComplex


def _build_counts(a, result, exc):
    # A candidate cell picks one axis interval for each of the p * N slots.
    grid = a["grid"]
    counts = {"candidates": len(grid.axis_intervals()) ** (a["p"] * grid.N)}
    if result is not None:
        counts["cells"] = len(result.cells)
    return counts


def _simplex_count(x) -> int:
    return sum(len(level) for level in x.complex.by_dim)


def _search_counts(a, result, exc):
    if isinstance(exc, BudgetExceeded):
        return {"nodes": exc.count or 0}
    if result is None:
        return {}
    vertex_map, nodes = result
    return {"nodes": nodes, "found": int(vertex_map is not None),
            "exhausted": int(vertex_map is None)}


def _words(a, result, exc):
    return {"words": len(result)} if result is not None else {}


# (span name, module or class, attribute, counts from (bound arguments, result,
# exception)).  zpindex.cli.periodic_points and zpindex.subshifts.periodic_points
# are probed separately; neither calls the other, so words are counted once.
PROBES = (
    ("cubical.build", zpindex.cli, "build_pp_xm", _build_counts),
    ("cubical.build", zpindex.cli, "build_pp_yz", _build_counts),
    ("cubical.triangulate", zpindex.cli, "cubical_to_simplicial",
     lambda a, r, e: {"simplices": _simplex_count(r)} if r is not None else {}),
    ("cubical.homology", zpindex.cli, "cubical_homology", None),
    ("simplicial.homology", zpindex.cli, "homology", None),
    ("simplicial.homology", zpindex.certificates, "homology", None),
    ("fplinalg.rank", zpindex.fplinalg, "fp_rank",
     lambda a, r, e: {"columns": len(a["columns"]), "rank": r or 0}),
    ("simplicial.maximal", SimplicialComplex, "maximal_simplices", None),
    ("simplicial.content_key", zpindex.certificates, "content_key", None),
    ("simplicial.close", SimplicialComplex, "from_simplices", None),
    ("simplicial.subdivide", zpindex.certificates, "barycentric_subdivide", None),
    ("simplicial.subdivide", zpindex.cli, "barycentric_subdivide", None),
    ("search", zpindex.certificates, "find_equivariant_vertex_map", _search_counts),
    ("verify", zpindex.certificates, "check_vertex_map",
     lambda a, r, e: {"simplices": _simplex_count(a["source"])}),
    ("certificates.encode", zpindex.cli, "certificate_to_json_dict", None),
    ("certificates.decode", zpindex.cli, "certificate_from_json_dict", None),
    ("subshifts.enumerate", zpindex.cli, "periodic_points", _words),
    ("subshifts.enumerate", zpindex.subshifts, "periodic_points", _words),
    ("subshifts.join", zpindex.cli, "join_power", None),
    ("cli.load", zpindex.cli, "_load_complex", None),
    ("cli.artifact", zpindex.cli, "canonical_json",
     lambda a, r, e: {"bytes": len(r.encode())} if r is not None else {}),
    ("cli.artifact", zpindex.cli, "sha256_of", None),
)


class Tracer:
    """In-memory spans.  Probes record only while `active` is set."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.active = False
        self.job = None
        self._restore: list = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "parent": self.stack[-1] if self.stack else None,
                "job": self.job, "name": name, "start": time.perf_counter(),
                "end": None, "counts": {}}
        self.spans.append(span)
        self.stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                self.close(span)
                if counter is not None:
                    arguments = signature.bind(*args, **kwargs).arguments
                    span["counts"] = counter(arguments, result, exc)
        return probe

    def install(self) -> None:
        for name, owner, attr, counter in PROBES:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, counter))
            else:
                new = self._wrap(name, raw, counter)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}), encoding="utf-8")




def layer_metrics(spans: list[dict], slowdown: float) -> dict:
    """Per-layer totals, in seconds scaled by the pass's host slowdown (see
    speed.py).  Time around a probe counts only its outermost span, so a
    probe nested in itself is not counted twice."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + (s["end"] - s["start"]) / slowdown)

    def outermost(s) -> bool:
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"] == s["name"]:
                return False
            parent = by_id[parent]["parent"]
        return True

    incl: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    for s in spans:
        name, dur = s["name"], (s["end"] - s["start"]) / slowdown
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(s["id"], 0.0)
        if outermost(s):
            incl[name] = incl.get(name, 0.0) + dur
        for key, value in s["counts"].items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def t(name):
        return incl.get(name, 0.0)

    def c(key):
        return counts.get(key, 0)

    candidates = c("cubical.build.candidates")
    search_s = t("search")
    return {
        "cubical.build_s": t("cubical.build"),
        "cubical.candidates": candidates,
        "cubical.cells": c("cubical.build.cells"),
        "cubical.keep_ratio": c("cubical.build.cells") / candidates if candidates else 0.0,
        "cubical.triangulate_s": t("cubical.triangulate"),
        "cubical.simplices_out": c("cubical.triangulate.simplices"),
        "cubical.homology_s": self_time.get("cubical.homology", 0.0),
        "simplicial.homology_s": self_time.get("simplicial.homology", 0.0),
        "fplinalg.rank_s": t("fplinalg.rank"),
        "fplinalg.columns": c("fplinalg.rank.columns"),
        "fplinalg.rank": c("fplinalg.rank.rank"),
        "simplicial.maximal_s": t("simplicial.maximal"),
        "simplicial.maximal_calls": calls.get("simplicial.maximal", 0),
        "simplicial.content_key_s": t("simplicial.content_key"),
        "simplicial.close_s": t("simplicial.close"),
        "simplicial.subdivide_s": t("simplicial.subdivide"),
        "search.s": search_s,
        "search.nodes": c("search.nodes"),
        "search.nodes_per_s": c("search.nodes") / search_s if search_s else 0.0,
        "search.found": c("search.found"),
        "search.exhausted": c("search.exhausted"),
        "verify.s": t("verify"),
        "verify.calls": calls.get("verify", 0),
        "verify.simplices": c("verify.simplices"),
        "certificates.encode_s": t("certificates.encode"),
        "certificates.decode_s": t("certificates.decode"),
        "subshifts.enumerate_s": t("subshifts.enumerate"),
        "subshifts.words": c("subshifts.enumerate.words"),
        "subshifts.join_s": t("subshifts.join"),
        "cli.load_s": t("cli.load"),
        "cli.artifact_s": t("cli.artifact"),
        "cli.artifact_bytes": c("cli.artifact.bytes"),
    }
