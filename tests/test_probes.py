"""The benchmark's probes (perfbench/probes.py) wrap program functions at
module and class attributes.  A renamed or moved function would otherwise
only show when a traced benchmark run fails."""

import importlib.util
from pathlib import Path

PROBES_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "probes.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_probes_attach_and_restore():
    probes = load_probes()
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
