"""Before/after ladder of `cubical-homology` instances, one process per run.

    python3 tools/cubical_ladder.py --parent OLD_SRC --change NEW_SRC \
        --repeats 3 --out BENCH.json

OLD_SRC and NEW_SRC are `src/` directories of two checkouts.  Every
instance is run `--repeats` times per side, alternating parent and change,
each run in a fresh interpreter that imports `zpindex` from its side's
source and calls `zpindex.cli.main` on the instance's argv.  A run reports
its wall seconds, peak RSS and its split into stages, timed by wrapping
module attributes the way `perfbench/probes.py` does, so either side's code
is measured unchanged:

- enumerate: `cubical.cyclic_words`, the cell enumerator;
- validate: the `CubicalZpComplex` constructor (sorting, grouping and the
  face, shift and constraint checks);
- homology: `cli.cubical_homology` less the time in `rank`, that is the
  boundary columns and the driver's bookkeeping;
- rank: `fplinalg.fp_rank`, with the number of columns it was given.

The output holds the median of each timed field over the repeats (wall
seconds, not scaled to a host speed), the cells, columns and Betti numbers
(which must agree across sides), and each side's `src/` line count.
`--instance NAME --src DIR` runs one instance once and prints its JSON.
"""

from __future__ import annotations

import argparse
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
    return f"--space Xm --N {N} --p {p} --grid {G} --delta 1/{G} --coeff {p}"


INSTANCES = {
    "x1-n2p3g2": _xm(2, 3, 2),
    "x1-n2p3g3": _xm(2, 3, 3),
    "x1-n2p3g4": _xm(2, 3, 4),
    "z-p5g3": "--space Z --p 5 --grid 3 --coeff 5",
    "x1-n1p5g4": _xm(1, 5, 4),
    "x1-n1p7g2": _xm(1, 7, 2),
}
STAGES = ("enumerate", "validate", "homology", "rank")


def run_one(name: str, src: str) -> dict:
    sys.path.insert(0, src)
    import zpindex.cli
    import zpindex.cubical
    import zpindex.fplinalg

    spent = dict.fromkeys(STAGES, 0.0)
    columns = [0]

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter() - start
        return wrapper

    def counted(fn):
        def wrapper(cols, *args, **kwargs):
            columns[0] += len(cols)
            return fn(cols, *args, **kwargs)
        return wrapper

    cx_class = zpindex.cubical.CubicalZpComplex
    cx_class.__init__ = timed("validate", cx_class.__init__)
    zpindex.cubical.cyclic_words = timed("enumerate", zpindex.cubical.cyclic_words)
    zpindex.cli.cubical_homology = timed("homology", zpindex.cli.cubical_homology)
    zpindex.fplinalg.fp_rank = timed("rank", counted(zpindex.fplinalg.fp_rank))

    with tempfile.TemporaryDirectory() as out:
        artifact = Path(out) / "result.json"
        argv = ["cubical-homology", *INSTANCES[name].split(), "--out", str(artifact)]
        start = time.perf_counter()
        code = zpindex.cli.main(argv)
        total = time.perf_counter() - start
        result = json.loads(artifact.read_text())["result"]
    if code != 0:
        raise SystemExit(f"{name}: exit {code}")
    spent["homology"] -= spent["rank"]
    return {"seconds": total, **{f"{s}_s": spent[s] for s in STAGES},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cells": result["cells"], "columns_reduced": columns[0],
            "betti": result["homology"]["betti"]}


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
        for _ in range(args.repeats):
            for side, src in sides.items():
                line = subprocess.run(
                    [sys.executable, __file__, "--instance", name, "--src", src],
                    check=True, capture_output=True, text=True).stdout
                runs[side].append(json.loads(line))
        entry = {}
        for side, rs in runs.items():
            entry[side] = {key: round(statistics.median(r[key] for r in rs), 3)
                           for key in rs[0] if key.endswith(("_s", "_mb")) or key == "seconds"}
            entry[side].update({key: rs[0][key] for key in ("cells", "columns_reduced", "betti")})
        if entry["parent"]["betti"] != entry["change"]["betti"]:
            raise SystemExit(f"{name}: Betti numbers differ")
        ladder[name] = {"argv": f"cubical-homology {INSTANCES[name]}", **entry}
        print(name, json.dumps(ladder[name]), file=sys.stderr)
    report = {"about": "wall seconds and peak RSS are medians over the repeats, "
                        "one process per run, not scaled to a host speed",
              "host": f"{platform.machine()}, {platform.python_implementation()} "
                      f"{platform.python_version()}",
              "repeats": args.repeats,
              "src_lines": {side: src_lines(src) for side, src in sides.items()},
              "instances": ladder}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
