"""Machine-speed calibration: time an interval at a reference speed.

Each virtual CPU of the shared host this benchmark was written on changes
speed on its own: by 10-50% from one second to the next, and by up to about
1.8x in spells that last from seconds to about a minute.  A plain wall time
then measures the host as much as the program.

A fixed pure-Python loop slows down with the program.  :class:`Clock` runs it
just before an interval, every ``INTERVAL_S`` during it (from a timer signal)
and just after it.  The loop's own time is left out of the interval, and the
interval is scaled by ``REFERENCE_S`` over the mean loop time, so it reads as
it would on a machine where the loop takes ``REFERENCE_S``.  A change to the
program moves the scaled time by the same share as the raw time; a change of
machine speed moves the program and the loop together and cancels.

The loop uses no zitterkit code and no third-party module, so a change to the
program cannot move it.  Importing this module before a cold start loads only
the standard ``signal`` module (under 1 ms) that the program would not.
"""

import signal
import time

#: Time of :func:`loop` on the reference machine (2-vCPU Xeon at 2.1 GHz,
#: Python 3.11.7).
REFERENCE_S = 0.002

#: Seconds between loop samples inside an interval; the loop then takes
#: about 2% of the interval, which the clock leaves out.
INTERVAL_S = 0.1


def loop() -> float:
    """Run the fixed loop once; return the seconds it took."""
    start = time.perf_counter()
    total = 0.0
    values = [0.5, 1.5, 2.5]
    for i in range(10000):
        x = values[i % 3] * 1.0000001
        total += x * x - (i & 7) / 3.0
        values[i % 3] = x if x < 4.0 else 0.5
    return time.perf_counter() - start


class Clock:
    """Time a ``with`` block: ``raw_s`` is its wall time without the loop
    samples, ``scaled_s`` that time at reference speed.

    With ``sample=False`` the loop runs only before and after the block, so
    nothing runs inside it.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.loops: list[float] = []
        self.paused = 0.0
        self.raw_s = self.scaled_s = 0.0

    def _sample(self, signum, frame):
        began = time.perf_counter()
        self.loops.append(loop())
        self.paused += time.perf_counter() - began

    def __enter__(self):
        self.loops.append(loop())
        if self.sample:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.raw_s = time.perf_counter() - self._start - self.paused
        if self.sample:
            signal.signal(signal.SIGALRM, self._previous)
        self.loops.append(loop())
        self.scaled_s = self.raw_s * REFERENCE_S / (sum(self.loops) / len(self.loops))
        return False
