import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import zpindex.cubical  # noqa: E402
import zpindex.fplinalg  # noqa: E402
import zpindex.simplicial  # noqa: E402

# One profile for every property test: the same examples on every run, and
# no per-example deadline, since wall time on a shared host varies widely.
settings.register_profile("zpindex", deadline=None, derandomize=True)
settings.load_profile("zpindex")


@pytest.fixture
def driver_calls(monkeypatch):
    """Routes the driver calls of `homology` and `cubical_homology` through
    the real driver, logging each call as a dict: its `by_dim`, the
    `signed_faces` rule it was given, and the cells that rule was `asked` for."""
    calls = []

    def spy(by_dim, signed_faces, p, reduced):
        call = {"by_dim": by_dim, "signed_faces": signed_faces, "asked": []}
        calls.append(call)

        def logged(cell):
            call["asked"].append(cell)
            return signed_faces(cell)
        return zpindex.fplinalg.betti_numbers(by_dim, logged, p, reduced)
    for module in (zpindex.simplicial, zpindex.cubical):
        monkeypatch.setattr(module, "betti_numbers", spy)
    return calls
