"""Times at one clock speed: a fixed pure-Python kernel timed around every call.

The 2-core box the baseline comes from changes its clock speed by up to a
third for seconds to minutes at a time: the same pure-Python loop takes 78
to 130 ms depending on when it runs, and identical benchmark runs a few
minutes apart differ by 15-20% in wall time. The kernel below is timed
between calls and, inside the study calls, between scanned games, at most
every INTERVAL_S; a call's or a game's wall time is then rescaled to the
speed at which the kernel takes REF_MS:

    time at reference speed = wall time * REF_MS / (median kernel time near it)

Set-up time is rescaled the same way, by the kernel timed three times right
after set-up in the same process.

"Near" is within WINDOW_S of the call: single kernel timings also jitter
from one call to the next, which the median over a few seconds leaves out,
while the drift that spreads whole runs apart is slower than that. On the
same box, over 2.5 s windows of identical calls, this took the standard
deviation of log time from 0.13-0.19 down to 0.06-0.11. The wall times
themselves are kept in every result file.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Sets the unit: times are as if the kernel took REF_MS, about its time on
# the baseline box at its usual clock (it ranged from 2.8 to 5.2 ms).
REF_MS = 5.0
INTERVAL_S = 0.25
WINDOW_S = 2.0
_WEIGHTS = (180, 190, 200, 210, 220, 230, 170, 160, 240, 205, 195, 215, 185, 225, 175, 235)


def kernel() -> int:
    """A subset-sum table over big integers, like the program's counting tables.

    Its working set is close to theirs, which tracks the program's speed
    better than a smaller kernel did.
    """
    cap = 5000
    vec = [0] * cap
    vec[0] = 1
    for w in _WEIGHTS:
        vec[w:] = [a + b for a, b in zip(vec[w:], vec[: cap - w])]
    return vec[-1]


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REF_MS / 1000 / kernel_s


class SpeedProbe:
    """Kernel timings over a run: (midpoint, seconds) pairs, in time order."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0  # total time spent in the kernel
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        """Time the kernel once; unless forced, only if INTERVAL_S has passed."""
        start = time.perf_counter()
        if not force and start - self._last < INTERVAL_S:
            return
        took = kernel_seconds()
        self.times.append(start + took / 2)
        self.seconds.append(took)
        self.spent += took
        self._last = start + took

    def factor(self, start: float, end: float) -> float:
        """REF_MS over the median kernel time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # nothing that near: the samples on either side
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return scale(1.0, statistics.median(self.seconds[lo:hi]))
