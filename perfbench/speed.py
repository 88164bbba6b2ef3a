"""Machine-speed correction for timings taken on a shared machine.

Other tenants of a shared machine slow it by 10-40% for seconds at a
time, which no amount of repetition inside one run averages away.  While
a SpeedProbe is active, a SIGALRM timer runs a fixed pure-Python
reference loop every INTERVAL_S of wall time and records how long it
took.  An operation's time, less the probe time that fell inside it, is
scaled by REF_SECONDS over the median reference time within WINDOW_S of
the operation, so timings read as on a machine whose reference loop takes
REF_SECONDS.  On a 2-core shared machine this cut the run-to-run spread
of graphs_per_s from 0.19-0.30 (wall clock) to 0.04-0.13.  The reference
loop shares no code with the package, so no change to the package moves
it.  No thread or process is started.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

REF_SECONDS = 1.5e-4  # the loop's time on the 2-core machine that defined the benchmark
INTERVAL_S = 0.02
WINDOW_S = 0.5


def reference_loop() -> int:
    """Fixed work of about 0.15 ms."""
    table: dict[int, int] = {}
    x = 0
    for i in range(600):
        x = (x * 31 + i) & 0xFFFF
        table[x & 255] = table.get(x & 255, 0) + (x >> 3)
    return x


class SpeedProbe:
    """Context manager sampling the reference loop's time on a timer."""

    def __init__(self):
        self.ends: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        self._old_handler = None

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.ends.append(t1)
        self.times.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self) -> "SpeedProbe":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._tick()
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def start(self) -> tuple[float, float]:
        return perf_counter(), self.spent

    def stop(self, token: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, seconds less probe time) of what ran since start()."""
        t0, spent0 = token
        t1 = perf_counter()
        return t0, t1, t1 - t0 - (self.spent - spent0)

    def scaled(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` measured between ``start`` and ``end``, at reference speed."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        if hi <= lo:  # no sample near: use the closest one
            lo = min(lo, len(self.ends) - 1)
            hi = lo + 1
        return seconds * REF_SECONDS / statistics.median(self.times[lo:hi])
