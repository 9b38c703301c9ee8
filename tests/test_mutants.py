"""The mutation catalogue (tools/mutants.py) names exact texts of `src/`.
A refactor that moves one would orphan its mutant, so the old text of every
edit must still occur exactly once in its file and every named test must
exist.  The mutants themselves are run by `python3 tools/mutants.py`,
outside tier-1."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert mutant.edits
    for file, old, new in mutant.edits:
        assert file.startswith("src/")
        assert new != old
        assert (ROOT / file).read_text().count(old) == 1


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *names = re.sub(r"\[.*\]$", "", node).split("::")
        source = (ROOT / path).read_text()
        for kind, name in zip(["class"] * (len(names) - 1) + ["def"], names):
            assert re.search(rf"^\s*{kind} {name}\b", source, re.M), node
