"""Benchmark of the zpindex CLI on fixed instance ladders.

    python3 perfbench/run.py --workload certify|refute|topology|all \
        --seed N --seconds S --trace 0|1

Set-up runs SETUPS times, each in a fresh interpreter that imports zpindex
and writes the workload's input files; `setup_s` is their median.  A fresh
worker then runs the workload's jobs (see jobs.py and README.md).  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs one
untraced and one traced pass and reports the per-layer metrics.  Every time
is scaled to a reference host speed sampled during the run (speed.py).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The program is run from `src/` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("certify", "refute", "topology")
SETUPS = 3
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# A workload's run, set-up included, is cut (and fails) after this long.
RUN_LIMIT_S = 175


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def fmt(values) -> str:
    return ",".join(f"{v:.3f}" for v in values)


def metric_specs(trace: int) -> dict:
    """The metrics BENCHMARK.json promises for this mode, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    if bad or len(set(names)) != len(names):
        fail(f"BENCHMARK.json metric names malformed or repeated: {bad or names}")
    predicted = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
    unknown = sorted(set(predicted) - {m["name"] for m in spec["per_layer"]})
    if unknown:
        fail(f"predictions.json names metrics BENCHMARK.json lacks: {unknown}")
    return specs


def worker(deadline: float, role: str, workload: str, seed: int, work: Path,
           *extra: str) -> None:
    # Bytecode is cached under .bench_build whatever the caller's setting, so
    # that set-up time does not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(HERE / "worker.py"), role, "--workload", workload,
            "--seed", str(seed), "--dir", str(work), *extra]
    # The worker's stdout goes to our stderr: our stdout carries only results.
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        fail(f"{role} worker for {workload} exited with {proc.returncode}")


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    specs = metric_specs(trace)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        result_path = work / "result.json"
        setups = []
        for _ in range(SETUPS):
            start = time.perf_counter()
            worker(deadline, "setup", workload, seed, work, "--result", str(result_path))
            wall = time.perf_counter() - start
            sampled = json.loads(result_path.read_text(encoding="utf-8"))
            setups.append((wall - sampled["spent"]) / sampled["slowdown"])
        worker(deadline, "measure", workload, seed, work, "--seconds", str(seconds),
               "--trace", str(trace), "--result", str(result_path),
               "--trace-file", str(WORK / f"trace-{workload}-seed{seed}.json"))
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = dict(result["metrics"])
    if trace == 0:
        values["setup_s"] = statistics.median(setups)
    problems = list(result["predictions_violated"])
    if set(values) != set(specs):
        problems.append(f"metrics {sorted(values)} differ from BENCHMARK.json "
                        f"{sorted(specs)}")
    if not result["wrong_reference_caught"]:
        problems.append("a deliberately wrong reference value went undetected")
    for problem in problems:
        print(f"perfbench: {workload}: {problem}", file=sys.stderr)
    attempted, failed = result["attempted"], result["failed"]
    metrics = {n: {"value": v, "unit": specs[n]["unit"]}
               for n, v in values.items() if n in specs}
    shown = " ".join(f"{n}={v['value']:.6g} {v['unit']}" for n, v in metrics.items())
    print(f"{workload} seed={seed} setups_s={fmt(setups)} raw_passes_s={fmt(result['pass_s'])} "
          f"slowdown={fmt(result['slowdown'])}: {shown} "
          f"failed_frac={failed / attempted:.3g} ({failed}/{attempted} jobs)")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zpindex").is_dir():
        fail(f"no zpindex sources under {ROOT / 'src'}")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        out = run_workload(workload, args.seed, args.seconds, args.trace)
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
