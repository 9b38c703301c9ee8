"""Workloads of the zpindex benchmark: job lists, seeded input files, and the
semantic fields each job's artifact is checked on.

A job is one `zpindex` CLI invocation.  Its outcome is reduced to a small
dict of semantic fields (exit code, verdict, bound, Betti numbers, counts)
and compared with `reference.json`, recorded at the seed commit.  Artifact
bytes are deliberately not compared: a canonical witness or a certificate
field may legitimately change while the answer stays the same.  Every
witness map is re-checked by the standalone verifier on the way.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from zpindex.cubical import GridSpec, build_pp_xm, cubical_to_simplicial
from zpindex.simplicial import (
    FreeZpComplex,
    barycentric_subdivide,
    complex_from_json_dict,
    e_n_zp,
)
from zpindex.verify import check_vertex_map

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


class Job(NamedTuple):
    id: str
    argv: str  # CLI words; "{dir}" stands for the workload's input directory


def _xm(N: int, p: int, G: int) -> str:
    return f"--space Xm --N {N} --p {p} --grid {G} --delta 1/{G}"


JOBS: dict[str, tuple[Job, ...]] = {
    # Every job ends in a map witness: triangulation, content key,
    # serialization and certificate encode/decode/re-verification dominate;
    # the searches stay shallow.
    "certify": (
        Job("ind-x1-n1p5g4", f"ind {_xm(1, 5, 4)} --target 0"),
        Job("ind-x1-n2p3g2", f"ind {_xm(2, 3, 2)} --target 2"),
        Job("coind-x1-n2p3g2", f"coind {_xm(2, 3, 2)} --target 0"),
        Job("ind-x1-n1p5g3", f"ind {_xm(1, 5, 3)} --target 0"),
        Job("ind-x1-n1p7g2", f"ind {_xm(1, 7, 2)} --target 0"),
        Job("coind-z-p3g4", "coind --space Z --p 3 --grid 4 --target 0"),
    ),
    # Every search exhausts: narrow, deep trees over complexes written at
    # set-up, so the search layer does nearly all the work.
    "refute": (
        Job("search-e2p2d1-e1p2",
            "search-map --source {dir}/e2p2.json --target {dir}/e1p2.json --depth 1"),
        Job("search-e1p3-x1n2p3g2",
            "search-map --source {dir}/e1p3.json --target {dir}/x1-n2p3g2.json"),
        Job("search-e2p3-x1n2p3g2",
            "search-map --source {dir}/e2p3.json --target {dir}/x1-n2p3g2.json"),
        Job("search-e1p5-x1n1p5g3",
            "search-map --source {dir}/e1p5.json --target {dir}/x1-n1p5g3.json"),
        Job("search-e1p5-x1n1p5g4",
            "search-map --source {dir}/e1p5.json --target {dir}/x1-n1p5g4.json"),
    ),
    # Cell enumeration and F_p rank only: no search, no triangulation, no
    # content key.  Keep ratios run from 0.4% to 48%.
    "topology": (
        Job("cubhom-x1-n2p3g3", f"cubical-homology {_xm(2, 3, 3)} --coeff 3"),
        Job("cubhom-z-p5g3", "cubical-homology --space Z --p 5 --grid 3 --coeff 5"),
        Job("cubhom-x1-n1p7g2", f"cubical-homology {_xm(1, 7, 2)} --coeff 7"),
        Job("hom-e3p2-sd2", "homology --input {dir}/e3p2-sd2.json --coeff 2"),
        Job("joinper-sigma-p5x3", "join-periodic --shift sigma --p 5 --copies 3"),
        Job("periodic-sigma2-n3to16",
            "periodic --shift sigma_m --m 2 --n " + ",".join(map(str, range(3, 17)))),
    ),
}

WORKLOADS = tuple(JOBS)


def job_argv(job: Job, input_dir: Path, out_path: Path) -> list[str]:
    return job.argv.format(dir=input_dir).split() + ["--out", str(out_path)]


# ---------------------------------------------------------------------------
# Input files, written at set-up.

def _x1(N: int, p: int, G: int) -> FreeZpComplex:
    return cubical_to_simplicial(build_pp_xm(N, Fraction(1, G), 1, p, GridSpec(N, G)))


INPUTS = {
    "certify": {},
    "refute": {
        "e2p2": lambda: e_n_zp(2, 2),
        "e1p2": lambda: e_n_zp(1, 2),
        "e1p3": lambda: e_n_zp(1, 3),
        "e2p3": lambda: e_n_zp(2, 3),
        "e1p5": lambda: e_n_zp(1, 5),
        "x1-n2p3g2": lambda: _x1(2, 3, 2),
        "x1-n1p5g3": lambda: _x1(1, 5, 3),
        "x1-n1p5g4": lambda: _x1(1, 5, 4),
    },
    "topology": {
        "e3p2-sd2": lambda: barycentric_subdivide(barycentric_subdivide(e_n_zp(3, 2))),
    },
}

# Only the search inputs are relabelled: the search visits orbits in vertex
# order, so a relabelling moves its node counts but not its verdicts.
RELABELLED = frozenset({"refute"})


def maximal_simplices(x: FreeZpComplex) -> list[tuple[int, ...]]:
    """Simplices that are no proper face of another.

    Set-up does not call SimplicialComplex.maximal_simplices: that one is
    O(simplices x vertices), several seconds on X_1(N=1, p=5, G=4), and it is
    what the certify workload measures."""
    faces = set()
    for level in x.complex.by_dim[1:]:
        for s in level:
            faces.update(s[:i] + s[i + 1:] for i in range(len(s)))
    return [s for level in x.complex.by_dim for s in level if s not in faces]


def complex_file_dict(x: FreeZpComplex, rng: random.Random | None) -> dict:
    """The CLI's complex JSON for x, its vertices relabelled by a random
    permutation when rng is given; the action is conjugated to match."""
    n = x.complex.vertex_count
    label = list(range(n))
    if rng is not None:
        rng.shuffle(label)
    perm = [0] * n
    for v, image in enumerate(x.action.perm):
        perm[label[v]] = label[image]
    simplices = sorted((tuple(sorted(label[v] for v in s)) for s in maximal_simplices(x)),
                       key=lambda s: (len(s), s))
    return {"p": x.p, "vertices": n, "perm": perm,
            "simplices": [list(s) for s in simplices]}


def write_inputs(workload: str, seed: int, input_dir: Path) -> None:
    """Write the workload's input complexes; seed 0 keeps the canonical labels."""
    input_dir.mkdir(parents=True, exist_ok=True)
    for name, build in INPUTS[workload].items():
        rng = None
        if seed != 0 and workload in RELABELLED:
            rng = random.Random(f"{seed}:{name}")
        data = complex_file_dict(build(), rng)
        (input_dir / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")


# ---------------------------------------------------------------------------
# Semantic fields of an outcome, and their comparison with the reference.

def _witness_fields(subcommand: str, cert: dict) -> dict:
    """Re-verify the witness map independently and describe the space it
    certifies; the model side must be the standard model, subdivided."""
    ev = cert["evidence"]
    if not isinstance(ev, dict) or ev.get("type") != "map":
        return {"witness": "missing"}
    source = complex_from_json_dict(ev["source"])
    target = complex_from_json_dict(ev["target"])
    problems = check_vertex_map(source, target, ev["vertex_map"])
    space, model = (target, source) if subcommand == "coind" else (source, target)
    standard = e_n_zp(cert["value"], space.p)
    if subcommand == "coind":
        for _ in range(cert["depth"]):
            standard = barycentric_subdivide(standard)
    return {"witness": "verified" if not problems else problems[:3],
            "model_is_standard": model == standard,
            "space_f_vector": list(space.complex.f_vector())}


def semantics(job: Job, exit_code, artifact: dict | None) -> dict:
    """The fields of an outcome that the reference fixes."""
    out: dict = {"exit_code": exit_code}
    if exit_code != 0 or artifact is None:
        return out
    sub = job.argv.split()[0]
    res = artifact["result"]
    if sub in ("coind", "ind"):
        cert = res["certificate"]
        out.update({k: cert[k] for k in ("kind", "bound_type", "value", "depth")})
        out["cells"] = res["space_params"].get("cells")
        if cert["kind"] == "map_witness":
            out.update(_witness_fields(sub, cert))
    elif sub == "search-map":
        out.update(found=res["found"], depth=res["depth"])
    elif sub == "cubical-homology":
        out.update(cells=res["cells"], betti=res["homology"]["betti"])
    elif sub == "homology":
        out.update(betti=res["homology"]["betti"])
    elif sub == "join-periodic":
        cx = res["complex"]
        out.update(points=res["points"], copies=res["copies"],
                   vertices=cx["vertices"], maximal_simplices=len(cx["simplices"]))
    elif sub == "periodic":
        out.update(rows=[[r["period"], r["count"], r["orbit_count"]] for r in res["rows"]])
    return out


def compare(actual: dict, expected: dict) -> list[str]:
    """Differences between an outcome's fields and the reference's."""
    keys = sorted(set(actual) | set(expected))
    return [f"{k}: got {actual.get(k)!r}, expected {expected.get(k)!r}"
            for k in keys if actual.get(k) != expected.get(k)]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def wrong_reference(expected: dict) -> dict:
    """A copy of a job's reference with one field deliberately wrong."""
    bad = dict(expected)
    key = sorted(k for k in bad if k != "exit_code")[0] if len(bad) > 1 else "exit_code"
    value = bad[key]
    if isinstance(value, bool):
        bad[key] = not value
    elif isinstance(value, int):
        bad[key] = value + 1
    elif isinstance(value, list):
        bad[key] = value + [0]
    else:
        bad[key] = f"not {value}"
    return bad
