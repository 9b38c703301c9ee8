"""Machine speed, sampled while the program runs.

On a shared host the same work can take 1.7x longer in one minute than in
the next, because neighbours load the physical cores in phases lasting tens
of seconds. Wall time measured in one run then says as much about the host
as about the program. So while a pass runs, `SpeedSampler` times a fixed
calibration loop every 50 ms from a SIGALRM handler. The handler runs on the
worker's own thread, between bytecodes. A pass's times are then scaled to a
host on which the loop takes REFERENCE_S: seconds x REFERENCE_S / mean
loop time, after subtracting the sampler's own time (about 1.5%).

The loop mixes the interpreter work the program spends its time in: sorted
vertex tuples looked up in a frozenset (search, `maximal_simplices`), small
calls on interval tuples (cell checks) and sparse dict updates (F_p rank).
So it slows down with the host in about the same proportion as the program. Each sample runs the loop twice and times only the second
run. The first run brings the loop's data back into cache, so the timed run
does not depend on how much memory the program touched just before.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
# A fixed reference.  On a 2.1 GHz Xeon VM core under CPython 3.11 the timed
# loop has been seen to take 0.3 to 0.55 ms, depending on the host's load.
REFERENCE_S = 0.4e-3
_TABLE = frozenset(tuple(sorted((i, (i * 31) % 97, (i * 17) % 89))) for i in range(5000))
_INTERVALS = [(lo, length) for lo in range(5) for length in (0, 1)]


def _gap(a, b):
    return max(0, b[0] - (a[0] + a[1]), a[0] - (b[0] + b[1]))


def calibration_loop() -> int:
    """A fixed mix of the interpreter work the program spends its time in."""
    hits = 0
    for i in range(300):  # sorted vertex tuples looked up in a simplex table
        hits += tuple(sorted({i % 97, (i * 31) % 97, (i * 17) % 89})) in _TABLE
    for i in range(150):  # small calls on interval tuples, as in cell checks
        a, b = _INTERVALS[i % 10], _INTERVALS[(i * 7) % 10]
        hits += _gap(a, b) * _gap(b, a)
    column: dict[int, int] = {}
    for i in range(300):  # sparse column updates over F_p, as in fp_rank
        row = (i * 37) % 101
        value = (column.get(row, 0) - 3 * i) % 7
        if value:
            column[row] = value
        elif row in column:
            del column[row]
    return hits + len(column)


class SpeedSampler:
    """Times the calibration loop every INTERVAL_S between start and stop."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the sampler itself took

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        calibration_loop()
        timed = time.perf_counter()
        calibration_loop()
        end = time.perf_counter()
        self.samples.append(end - timed)
        self.spent += end - start

    def start(self) -> None:
        self.samples.clear()
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @property
    def slowdown(self) -> float:
        """Mean loop time over REFERENCE_S: 1.0 on the reference host."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / REFERENCE_S
