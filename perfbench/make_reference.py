"""Record reference.json: the semantic output of every benchmark job.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs each job once at seed 0 and checks the recorded values against
oracles that do not share code with the path that produced them; it refuses
to write the file if one disagrees:

- every witness map passes zpindex.verify.check_vertex_map, and its model
  side is the standard model E_n(Z_p);
- the cubical Betti numbers of X_1(N=2, p=3, G=2) equal the simplicial Betti
  numbers of its triangulation;
- periodic-point counts of sigma_2 equal the chromatic polynomial of
  gcd(n, 2) cycles of length n / gcd(n, 2), P(C_k, 3) = 2^k + 2(-1)^k, and
  orbit counts follow from those by Burnside's lemma;
- the join of three copies of the 30 period-5 points of sigma has 90
  vertices and 30^3 maximal simplices;
- E_3(Z_2), subdivided twice, is a 3-sphere: Betti numbers 1, 0, 0, 1;
- every refute search exhausts, also after the seed-1 relabelling.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import zpindex.cli
from zpindex.cubical import GridSpec, build_pp_xm, cubical_homology, cubical_to_simplicial
from zpindex.simplicial import homology

import jobs


def chromatic_cycle(k: int, colours: int = 3) -> int:
    """Proper colourings of the cycle C_k (C_1 is a loop: none)."""
    return 0 if k == 1 else (colours - 1) ** k + (-1) ** k * (colours - 1)


def sigma_m_counts(n: int, m: int) -> int:
    g = math.gcd(n, m)
    return chromatic_cycle(n // g) ** g


def sigma_m_orbits(n: int, m: int) -> int:
    """Rotation orbits of period-n points, by Burnside: a word fixed by the
    d-th rotation is a period-gcd(n, d) point."""
    return sum(sigma_m_counts(math.gcd(n, d), m) for d in range(n)) // n


def outcome(job: jobs.Job, input_dir: Path, out_dir: Path) -> dict:
    out_path = out_dir / f"{job.id}.json"
    exit_code = zpindex.cli.main(jobs.job_argv(job, input_dir, out_path))
    artifact = json.loads(out_path.read_text()) if exit_code == 0 else None
    return jobs.semantics(job, exit_code, artifact)


def oracle_problems(job_id: str, fields: dict) -> list[str]:
    problems = []
    if fields["exit_code"] != 0:
        problems.append(f"exit code {fields['exit_code']}")
    if "witness" in fields and (fields["witness"] != "verified"
                                or not fields["model_is_standard"]):
        problems.append("witness map not verified")
    if job_id.startswith("search-") and fields.get("found") is not False:
        problems.append("search did not exhaust")
    if job_id == "periodic-sigma2-n3to16":
        want = [[n, sigma_m_counts(n, 2), sigma_m_orbits(n, 2)] for n in range(3, 17)]
        if fields["rows"] != want:
            problems.append(f"periodic rows {fields['rows']} != chromatic {want}")
    if job_id == "joinper-sigma-p5x3":
        points = sigma_m_counts(5, 1)
        if (fields["points"], fields["vertices"], fields["maximal_simplices"]) != \
                (points, 3 * points, points ** 3):
            problems.append("join of periodic points has the wrong size")
    if job_id == "hom-e3p2-sd2" and fields["betti"] != [1, 0, 0, 1]:
        problems.append("E_3(Z_2) is not a homology 3-sphere")
    return problems


def main() -> int:
    cubical = build_pp_xm(2, Fraction(1, 2), 1, 3, GridSpec(2, 2))
    cub = cubical_homology(cubical, 3).betti
    sim = homology(cubical_to_simplicial(cubical).complex, 3, reduced=False).betti
    problems = [] if cub == sim else [f"X_1(N=2,p=3,G=2): cubical {cub} != simplicial {sim}"]
    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in jobs.WORKLOADS:
            for seed in (0, 1) if workload in jobs.RELABELLED else (0,):
                input_dir = Path(tmp) / f"{workload}-{seed}"
                jobs.write_inputs(workload, seed, input_dir)
                for job in jobs.JOBS[workload]:
                    fields = outcome(job, input_dir, Path(tmp) / "out")
                    problems += [f"{job.id} (seed {seed}): {p}"
                                 for p in oracle_problems(job.id, fields)]
                    if seed == 0:
                        reference[job.id] = fields
                    elif fields != reference[job.id]:
                        problems.append(f"{job.id}: seed {seed} changes {fields}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(reference.items())]
    jobs.REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {jobs.REFERENCE_PATH} ({len(reference)} jobs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
