import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# One profile for every property test: the same examples on every run, and
# no per-example deadline, since wall time on a shared host varies widely.
settings.register_profile("zpindex", deadline=None, derandomize=True)
settings.load_profile("zpindex")
