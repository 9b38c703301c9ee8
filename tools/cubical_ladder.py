"""Before/after ladder of CLI instances, one process per run.

    python3 tools/cubical_ladder.py --parent OLD_SRC --change NEW_SRC \
        --repeats 3 --out BENCH.json

OLD_SRC and NEW_SRC are `src/` directories of two checkouts.  Every
instance is run `--repeats` times per side, alternating parent and change,
the parent first on even repeats and the change first on odd ones, each run
in a fresh interpreter that imports `zpindex` from its side's source and
calls `zpindex.cli.main` on the instance's argv.  A reload rung
then loads the complex of its artifact again (`complex_from_json_dict`), as
a certificate load does.  A run reports its wall seconds, peak RSS and its
split into stages, timed by wrapping module attributes the way
`perfbench/probes.py` does, so either side's code is measured unchanged.
Each stage's time is its own, less the stages called inside it:

- enumerate: `cubical._enumerate_cells`, which lists the cells (codes or
  tuples, as the side holds them) and hands them to the constructor;
  `subshifts.periodic_points`, which lists periodic words, wrapped where
  `cli` calls it; and `cli.periodic_table`, which counts periodic points by
  transfer-matrix traces, with no word listed;
- validate: the `CubicalZpComplex` constructor (sorting, grouping and the
  face and shift checks);
- triangulate: `cli.cubical_to_simplicial`, the corner paths of the
  maximal cells;
- homology: `cli.cubical_homology`, that is the cubical face rule, which
  builds each boundary column as a dict keyed by face codes, and the
  driver's clearing, which skips the cells that are pivot rows above;
- rank: `fplinalg.fp_rank`, with the number of columns it was given;
- subdivide: `certificates.barycentric_subdivide`, which subdivides a
  search's source and, through `subdivide_times`, the `subdivide`
  subcommand's input;
- close: `SimplicialComplex.from_simplices`, the constructor on a flat
  family (triangulations, joins and loaded files), which keeps the maximal
  simplices and builds no face level; the subdivision calls the
  constructor itself, so its work counts under subdivide.  A level of a
  complex is built when first read, inside the stage that reads it;
- complex_validation: `SimplicialComplex._validate`, the vertex checks on
  the simplices a constructor is given;
- action_validation: `FreeZpComplex._validate`, which maps only the
  maximal simplices and looks for vertex orbits among them;
- maximal: `SimplicialComplex.maximal_simplices`, which lists them;
- search: `certificates.find_equivariant_vertex_map`, the map search;
- verify: `certificates.check_vertex_map`, the witness checker, which maps
  the source's maximal simplices (the listing counts under maximal) and
  walks every simplex only to name a refusal;
- artifact: `cli.canonical_json`, which writes the artifact's text (and
  that of `index.json` beside it).

While a run is timed, `perfbench/speed.py`'s `SpeedSampler` (imported from
that directory, unchanged) times its calibration loop every 50 ms, and once
before, so a short run has a sample too.  The run reports that slowdown and
the sampler's own seconds.  The output holds the median of each timed field
over the repeats (wall seconds), and under `scaled` the medians of the same
times on the sampler's reference host: each divided by its run's slowdown,
the sampler's own seconds first taken off the total (stage times keep the
few interrupts that fell inside them).  It also holds the SHA-256 of the
artifact's result and of the whole `--out` file, and the cells, columns,
Betti numbers and total search nodes when it has them (all of which must
agree across sides), and each side's `src/` line count.
`--instance NAME --src DIR` runs one instance once and prints its JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def _xm(N: int, p: int, G: int) -> str:
    return f"--space Xm --N {N} --p {p} --grid {G} --delta 1/{G}"


INSTANCES = {
    "x1-n2p3g2": f"cubical-homology {_xm(2, 3, 2)} --coeff 3",
    "x1-n2p3g3": f"cubical-homology {_xm(2, 3, 3)} --coeff 3",
    "x1-n2p3g4": f"cubical-homology {_xm(2, 3, 4)} --coeff 3",
    "z-p5g3": "cubical-homology --space Z --p 5 --grid 3 --coeff 5",
    "x1-n1p5g4": f"cubical-homology {_xm(1, 5, 4)} --coeff 5",
    "x1-n1p7g2": f"cubical-homology {_xm(1, 7, 2)} --coeff 7",
    # the certify workload's jobs on these two spaces
    "ind-x1-n2p3g2": f"ind {_xm(2, 3, 2)} --target 2",
    "coind-x1-n2p3g2": f"coind {_xm(2, 3, 2)} --target 0",
    "coind-z-p3g4": "coind --space Z --p 3 --grid 4 --target 0",
    # the paper-scale ind instance: 1,120 source vertex orbits, one search
    # frame per orbit
    "ind-x1-n2p3g3": f"ind {_xm(2, 3, 3)} --target 2",
    # E_3(Z_2) subdivided twice (1,696 vertices) and searched into E_3(Z_2)
    "coind-e3p2-d2": "coind --space enzp --n 3 --p 2 --target 3 --depth 2",
    # the refute workload's slowest search, at canonical labels: it exhausts
    # after 124,372 nodes
    "ind-e2p2-d1": "ind --space enzp --n 2 --p 2 --target 1 --depth 1",
    # coind >= 1 on the paper's X_1(N=2, p=3): its depth-1 search exhausts
    # after 201,181,176 nodes
    "coind-x1-n2p3g2-t1d1": f"coind {_xm(2, 3, 2)} --target 1 --depth 1 --budget 10000000000",
    # the topology workload's periodic-point job: 131,766 points, counted
    # by matrix traces with none listed
    "periodic-sigma2-n3to16": "periodic --shift sigma_m --m 2 --n "
                              + ",".join(map(str, range(3, 17))),
    # the topology workload's largest artifact: 1.67 MB, mostly simplex lists
    "joinper-sigma-p5x3": "join-periodic --shift sigma --p 5 --copies 3",
    # 1,257,120 simplices, triangulated, written and loaded again
    "reload-x1-n2p3g3": f"config-space {_xm(2, 3, 3)}",
}
RELOADED = {"reload-x1-n2p3g3"}
STAGES = ("enumerate", "validate", "triangulate", "homology", "rank", "subdivide", "close",
          "complex_validation", "action_validation", "maximal", "search", "verify", "artifact")


def run_one(name: str, src: str) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    from speed import SpeedSampler
    sys.path.insert(0, src)
    import zpindex.certificates
    import zpindex.cli
    import zpindex.cubical
    import zpindex.fplinalg
    import zpindex.simplicial

    spent = dict.fromkeys(STAGES, 0.0)
    columns = [0]
    nodes = []  # per search, the nodes it visited
    inner = []  # per open stage, the seconds spent in stages inside it

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            inner.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                spent[stage] += elapsed - inner.pop()
                if inner:
                    inner[-1] += elapsed
        return wrapper

    def counted(fn):
        def wrapper(cols, *args, **kwargs):
            columns[0] += len(cols)
            return fn(cols, *args, **kwargs)
        return wrapper

    def searched(fn):
        def wrapper(*args, **kwargs):
            vertex_map, count = fn(*args, **kwargs)
            nodes.append(count)
            return vertex_map, count
        return wrapper

    cx_class = zpindex.cubical.CubicalZpComplex
    cx_class.__init__ = timed("validate", cx_class.__init__)
    zpindex.cubical._enumerate_cells = timed("enumerate", zpindex.cubical._enumerate_cells)
    zpindex.cli.periodic_points = timed("enumerate", zpindex.cli.periodic_points)
    zpindex.cli.periodic_table = timed("enumerate", zpindex.cli.periodic_table)
    zpindex.cli.cubical_to_simplicial = timed("triangulate", zpindex.cli.cubical_to_simplicial)
    zpindex.cli.cubical_homology = timed("homology", zpindex.cli.cubical_homology)
    zpindex.fplinalg.fp_rank = timed("rank", counted(zpindex.fplinalg.fp_rank))
    zpindex.certificates.barycentric_subdivide = timed(
        "subdivide", zpindex.certificates.barycentric_subdivide)
    simplicial = zpindex.simplicial.SimplicialComplex
    simplicial.from_simplices = classmethod(timed("close", simplicial.from_simplices.__func__))
    simplicial._validate = timed("complex_validation", simplicial._validate)
    simplicial.maximal_simplices = timed("maximal", simplicial.maximal_simplices)
    acted = zpindex.simplicial.FreeZpComplex
    acted._validate = timed("action_validation", acted._validate)
    zpindex.certificates.find_equivariant_vertex_map = timed(
        "search", searched(zpindex.certificates.find_equivariant_vertex_map))
    zpindex.certificates.check_vertex_map = timed("verify", zpindex.certificates.check_vertex_map)
    zpindex.cli.canonical_json = timed("artifact", zpindex.cli.canonical_json)

    sampler = SpeedSampler()
    sampler.start()
    sampler.sample()
    with tempfile.TemporaryDirectory() as out:
        artifact = Path(out) / "result.json"
        argv = [*INSTANCES[name].split(), "--out", str(artifact)]
        before = sampler.spent
        start = time.perf_counter()
        code = zpindex.cli.main(argv)
        written = artifact.read_bytes()
        result = json.loads(written)["result"]
        if name in RELOADED:
            zpindex.simplicial.complex_from_json_dict(result["complex"])
        total = time.perf_counter() - start
        sampled = sampler.spent - before
    sampler.stop()
    if code != 0:
        raise SystemExit(f"{name}: exit {code}")
    facts = {"result_sha256": hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()).hexdigest(),
        "artifact_sha256": hashlib.sha256(written).hexdigest()}
    if "cells" in result:
        facts["cells"] = result["cells"]
    if "homology" in result:
        facts.update(columns_reduced=columns[0], betti=result["homology"]["betti"])
    if nodes:
        facts["search_nodes"] = sum(nodes)
    return {"seconds": total, **{f"{s}_s": spent[s] for s in STAGES},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "slowdown": sampler.slowdown, "sampler_s": sampled, **facts}


TIMES = ("seconds", *(f"{s}_s" for s in STAGES))


def scaled(run: dict) -> dict:
    """A run's times on the sampler's reference host."""
    return {key: (run[key] - (run["sampler_s"] if key == "seconds" else 0)) / run["slowdown"]
            for key in TIMES}


def side_order(sides: dict, repeat: int) -> list:
    """The (side, src) pairs in the order repeat `repeat` runs them."""
    return list(sides.items())[::-1 if repeat % 2 else 1]


def measured(key: str) -> bool:
    """Whether a run's field is a time, a size or the host speed (else an output)."""
    return key.endswith(("_s", "_mb")) or key in ("seconds", "slowdown", "scaled")


def src_lines(src: str) -> int:
    return sum(len(f.read_text().splitlines()) for f in Path(src).rglob("*.py"))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--instance", choices=sorted(INSTANCES))
    ap.add_argument("--src")
    args = ap.parse_args()
    if args.instance:
        print(json.dumps(run_one(args.instance, args.src)))
        return

    sides = {"parent": args.parent, "change": args.change}
    ladder = {}
    for name in INSTANCES:
        runs = {side: [] for side in sides}
        for repeat in range(args.repeats):
            for side, src in side_order(sides, repeat):
                line = subprocess.run(
                    [sys.executable, __file__, "--instance", name, "--src", src],
                    check=True, capture_output=True, text=True).stdout
                runs[side].append(json.loads(line))
        entry = {side: {key: round(statistics.median(r[key] for r in rs), 3) if measured(key)
                        else rs[0][key] for key in rs[0]} for side, rs in runs.items()}
        for side, rs in runs.items():
            entry[side]["scaled"] = {key: round(statistics.median(scaled(r)[key] for r in rs), 3)
                                     for key in TIMES}
        facts = [{key: v for key, v in entry[side].items() if not measured(key)} for side in sides]
        if facts[0] != facts[1]:
            raise SystemExit(f"{name}: outputs differ")
        ladder[name] = {"argv": INSTANCES[name], "reloaded": name in RELOADED, **entry}
        print(name, json.dumps(ladder[name]), file=sys.stderr)
    report = {"about": "wall seconds, peak RSS and host slowdown are medians over the "
                        "repeats, one process per run, the side run first swapped from one "
                        "repeat to the next; `scaled` holds the medians of the times "
                        "scaled to the reference host of perfbench/speed.py",
              "host": f"{platform.machine()}, {platform.python_implementation()} "
                      f"{platform.python_version()}",
              "repeats": args.repeats,
              "src_lines": {side: src_lines(src) for side, src in sides.items()},
              "instances": ladder}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
