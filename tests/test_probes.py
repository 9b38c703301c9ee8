"""The benchmark's probes (perfbench/probes.py) wrap program functions at
module and class attributes.  A renamed or moved function would otherwise
only show when a traced benchmark run fails.  A module may import a name it
never reads only as such a probe's pin, so no pin outlives its probe.  The
benchmark's set-up (perfbench/jobs.py) writes its input complexes with its
own copy of the maximal-simplex walk, which must keep matching the CLI's
JSON form."""

import ast
import importlib.util
from pathlib import Path

import pytest

from zpindex.simplicial import complex_to_json_dict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = PERFBENCH.parent / "src" / "zpindex"


def load_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_probes_attach_and_restore():
    probes = load_module("probes")
    missing = [f"{owner.__name__}.{attr}" for _, owner, attr, _ in probes.PROBES
               if not hasattr(owner, attr)]
    assert not missing
    before = [current(owner, attr) for _, owner, attr, _ in probes.PROBES]
    tracer = probes.Tracer()
    tracer.install()
    try:
        for (_, owner, attr, _), raw in zip(probes.PROBES, before):
            assert current(owner, attr) is not raw
    finally:
        tracer.uninstall()
    for (_, owner, attr, _), raw in zip(probes.PROBES, before):
        assert current(owner, attr) is raw


def unread_imports(path):
    """(name, import statement's source) of each name `path` imports and never reads."""
    text = path.read_text(encoding="utf-8")
    tree, lines = ast.parse(text), text.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    yield name, "\n".join(lines[node.lineno - 1:node.end_lineno])


def test_unread_imports_are_probe_pins():
    probed = {(owner.__name__, attr) for _, owner, attr, _ in load_module("probes").PROBES}
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # the package's public names
            continue
        module = f"zpindex.{path.stem}"
        for name, source in unread_imports(path):
            pinned = "# noqa: F401" in source and "perfbench" in source
            if not pinned or (module, name) not in probed:
                bad.append(f"{module}.{name}")
    assert bad == []


JOBS = load_module("jobs")


@pytest.mark.parametrize("workload,name", [
    (workload, name) for workload in ("refute", "topology") for name in JOBS.INPUTS[workload]])
def test_benchmark_inputs_are_cli_json(workload, name):
    x = JOBS.INPUTS[workload][name]()
    assert JOBS.complex_file_dict(x, None) == complex_to_json_dict(x)
