"""Reference-speed timing.

The machines this benchmark runs on are shared: the speed of a core can
halve and recover within a second as neighbours come and go, and the same
request then takes up to twice as long.  Such swings hit every piece of
Python code alike, so the benchmark measures them with a fixed reference
loop and reports times at reference speed: a measured interval is scaled
by REFERENCE_S / r, where r is the reference loop's time measured next to
the interval.  A program change moves the interval and not r; a slower
core moves both.

``Probe`` runs the reference loop every PERIOD_S seconds from a SIGALRM
handler, so long requests are sampled while they run; the probes' own time
is taken out of every interval that contains them.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import Callable, Optional

#: nominal time of one reference loop; scaled times are in seconds of a
#: machine on which the loop takes this long
REFERENCE_S = 0.005
PERIOD_S = 0.05


def reference_loop() -> None:
    """Fixed pure-Python work: big-integer fractions, a dict, a keyed sort."""
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 700):
        acc += Fraction(i, i + 7)
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    sorted(range(12000), key=lambda v: (v * 7919) % 10007)


class Probe:
    """Reference-loop samples taken during a pass."""

    def __init__(self, wrap: Optional[Callable[[Callable], Callable]] = None):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._loop = reference_loop if wrap is None else wrap(reference_loop)
        self._previous = None

    def sample(self, *_signal_args) -> None:
        # with the collector off, the loop never pays for collecting the
        # heap of the request it interrupts
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self._loop()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self) -> "Probe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def reference_time(self) -> float:
        """Median time of one reference loop over the samples taken."""
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def scaled(self, start: float, end: float) -> float:
        """Time of [start, end] at reference speed, probes taken out.

        Between two consecutive probes the speed is taken as the mean of
        theirs; the probes inside the interval are left out of it.  The
        interval must lie between the first and the last probe.
        """
        def speed(i: int) -> float:
            return REFERENCE_S / (self.ends[i] - self.starts[i])

        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        total, t = 0.0, start
        for i in range(lo, hi):
            total += (self.starts[i] - t) * (speed(i - 1) + speed(i)) / 2
            t = self.ends[i]
        return total + (end - t) * (speed(hi - 1) + speed(hi)) / 2
