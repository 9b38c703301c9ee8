"""The ladder (tools/cubical_ladder.py) times its stages by wrapping module
and class attributes of the program.  A moved or renamed function would
leave its wrapper unused and its stage reading 0 s, so these rungs are run
once each and every stage they exercise must read more than 0."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LADDER = ROOT / "tools" / "cubical_ladder.py"

EXERCISED = {
    "x1-n2p3g2": ("enumerate", "validate", "homology", "rank"),
    "ind-x1-n2p3g2": ("enumerate", "validate", "triangulate", "close", "complex_validation",
                      "action_validation", "maximal", "search", "verify"),
    "coind-e3p2-d2": ("subdivide", "complex_validation", "action_validation", "search",
                      "verify"),
    "periodic-sigma2-n3to16": ("enumerate",),
    "ind-e2p2-d1": ("search",),
    "joinper-sigma-p5x3": ("close", "action_validation", "artifact"),
}


spec = importlib.util.spec_from_file_location("cubical_ladder", LADDER)
ladder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ladder)


def test_rungs_cover_every_stage():
    assert set().union(*EXERCISED.values()) == set(ladder.STAGES)


def test_sides_swap_which_runs_first():
    sides = {"parent": "old/src", "change": "new/src"}
    firsts = [ladder.side_order(sides, repeat)[0][0] for repeat in range(4)]
    assert firsts == ["parent", "change", "parent", "change"]
    assert sorted(ladder.side_order(sides, 1)) == sorted(sides.items())


def test_scaled_times():
    # The sampler's own seconds come off the wall total only, and every
    # time is divided by the slowdown.
    run = {"seconds": 2.2, "sampler_s": 0.2, "slowdown": 2.0,
           **{f"{s}_s": 0.5 for s in ladder.STAGES}}
    times = ladder.scaled(run)
    assert times.pop("seconds") == pytest.approx(1.0)
    assert times == {f"{s}_s": pytest.approx(0.25) for s in ladder.STAGES}


@pytest.mark.parametrize("instance", sorted(EXERCISED))
def test_stage_wrappers_attach(instance):
    line = subprocess.run(
        [sys.executable, str(LADDER), "--instance", instance, "--src", str(ROOT / "src")],
        check=True, capture_output=True, text=True).stdout
    run = json.loads(line)
    assert [stage for stage in EXERCISED[instance] if run[f"{stage}_s"] <= 0] == []
    assert run["slowdown"] > 0 and 0 <= run["sampler_s"] < run["seconds"]
