"""One benchmark worker process: either writes a workload's inputs (set-up)
or runs its job list through `zpindex.cli.main` and checks every output.

    python3 perfbench/worker.py setup   --workload W --seed N --dir D --result FILE
    python3 perfbench/worker.py measure --workload W --seed N --dir D \
        --seconds S --trace 0|1 --result FILE [--trace-file FILE]

`run.py` starts it with `src` on PYTHONPATH.  A measure run is single
threaded and closed loop: one job at a time, each after the previous one
has finished and been checked.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import zpindex.cli

import jobs
import probes
import speed


def run_pass(workload: str, input_dir: Path, out_dir: Path, reference: dict,
             tracer=None) -> dict:
    """Run every job once and check it.  Returns the pass's wall and CPU
    seconds, raw and scaled to the reference host speed, and each job's
    outcome."""
    out_dir.mkdir(parents=True)
    outcomes = []
    sampler = speed.SpeedSampler()
    sampler.start()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs.JOBS[workload]:
        out_path = out_dir / f"{job.id}.json"
        if tracer is not None:
            tracer.job, tracer.active = job.id, True
            root = tracer.open("job")
        try:
            exit_code = zpindex.cli.main(jobs.job_argv(job, input_dir, out_path))
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc()
            exit_code = f"raised {type(exc).__name__}"
        finally:
            if tracer is not None:
                tracer.close(root)
                tracer.active = False
        try:
            artifact = None
            if exit_code == 0:
                artifact = json.loads(out_path.read_text(encoding="utf-8"))
            fields = jobs.semantics(job, exit_code, artifact)
        except Exception as exc:  # an unreadable artifact is a failed job
            fields = {"exit_code": exit_code, "unreadable": repr(exc)}
        problems = jobs.compare(fields, reference[job.id])
        for problem in problems:
            print(f"{workload}/{job.id}: {problem}", file=sys.stderr)
        outcomes.append({"job": job.id, "fields": fields, "failed": bool(problems)})
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    sampler.stop()
    shutil.rmtree(out_dir)
    slowdown = sampler.slowdown
    return {"wall": wall, "cpu": cpu, "slowdown": slowdown,
            "batch_s": (wall - sampler.spent) / slowdown,
            "cpu_s": (cpu - sampler.spent) / slowdown,
            "outcomes": outcomes}


def check_predictions(workload: str, metrics: dict, predictions: dict) -> list[str]:
    """Cells of the prediction table that the traced numbers contradict."""
    problems = []
    for name, pred in predictions.items():
        value = metrics[name]
        if workload in pred.get("zero_on", ()) and value != 0:
            problems.append(f"{name} = {value} on {workload}, predicted 0")
        if workload in pred.get("works_on", ()) and value <= 0:
            problems.append(f"{name} = {value} on {workload}, predicted > 0")
        limit = pred.get("below", {}).get(workload)
        if limit is not None and value >= limit:
            problems.append(f"{name} = {value} on {workload}, predicted < {limit}")
    return problems


def measure(args) -> dict:
    reference = jobs.load_reference()
    input_dir, out_root = Path(args.dir), Path(args.dir) / "out"
    passes = []
    if args.trace:
        # One untraced pass, then one traced pass: the difference in their
        # scaled batch_s is the tracing overhead.
        passes.append(run_pass(args.workload, input_dir, out_root / "0", reference))
        tracer = probes.Tracer()
        tracer.install()
        try:
            traced = run_pass(args.workload, input_dir, out_root / "1", reference, tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        metrics = probes.layer_metrics(tracer.spans, traced["slowdown"])
        metrics["trace.batch_s"] = traced["batch_s"]
        metrics["trace.overhead_s"] = traced["batch_s"] - passes[0]["batch_s"]
        metrics["trace.spans"] = len(tracer.spans)
        predictions = json.loads((jobs.HERE / "predictions.json").read_text(encoding="utf-8"))
        violated = check_predictions(args.workload, metrics, predictions)
        for problem in violated:
            print(f"PREDICTION VIOLATED: {problem}", file=sys.stderr)
        if args.trace_file:
            tracer.write(Path(args.trace_file), {"workload": args.workload, "seed": args.seed})
    else:
        # Whole passes back to back; another pass starts only if it should
        # end within the time budget.  The first pass always runs.
        # Peak memory is read after the first pass: later passes reuse (or
        # fragment) the allocator's arenas, and their number varies.
        start = time.perf_counter()
        while True:
            passes.append(run_pass(args.workload, input_dir,
                                   out_root / str(len(passes)), reference))
            if len(passes) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if time.perf_counter() - start + passes[-1]["wall"] > args.seconds:
                break
        violated = []
        metrics = {
            "batch_s": statistics.median(p["batch_s"] for p in passes),
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
    outcomes = [o for p in passes for o in p["outcomes"]]
    # The output check must be able to fail: the last pass, checked against
    # a reference with one field wrong in every job, has to fail every job.
    wrong = [jobs.compare(o["fields"], jobs.wrong_reference(reference[o["job"]]))
             for o in passes[-1]["outcomes"]]
    return {"pass_s": [p["wall"] for p in passes],
            "slowdown": [p["slowdown"] for p in passes],
            "attempted": len(outcomes),
            "failed": sum(o["failed"] for o in outcomes),
            "wrong_reference_caught": all(wrong),
            "predictions_violated": violated,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--result")
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)
    if args.role == "setup":
        # Sampled at both ends as well: set-up can be shorter than INTERVAL_S.
        sampler = speed.SpeedSampler()
        sampler.start()
        sampler.sample()
        jobs.write_inputs(args.workload, args.seed, Path(args.dir))
        sampler.sample()
        sampler.stop()
        result = {"slowdown": sampler.slowdown, "spent": sampler.spent}
    else:
        result = measure(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
