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
}


def test_rungs_cover_every_stage():
    spec = importlib.util.spec_from_file_location("cubical_ladder", LADDER)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    assert set().union(*EXERCISED.values()) == set(ladder.STAGES)


@pytest.mark.parametrize("instance", sorted(EXERCISED))
def test_stage_wrappers_attach(instance):
    line = subprocess.run(
        [sys.executable, str(LADDER), "--instance", instance, "--src", str(ROOT / "src")],
        check=True, capture_output=True, text=True).stdout
    run = json.loads(line)
    assert [stage for stage in EXERCISED[instance] if run[f"{stage}_s"] <= 0] == []
