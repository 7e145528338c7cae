"""A wall clock rescaled by a reference kernel interleaved every 10 ms.

On a shared 2-vCPU guest the speed of the same code drifts by up to 1.8x
over seconds (see README.md).  A SIGALRM timer runs a fixed kernel from
this file every 10 ms and times it; the program time between two ticks is
scaled by REFERENCE_S / (that kernel time).  The time spent in the kernel
itself is left out.  A calibrated second is therefore a second at the speed
the machine had when REFERENCE_S was measured, whatever its speed now.

The handler leaves nothing allocated behind: kernel times go into a buffer
made up front.  Objects it kept would land between the program's own at
moments that differ from run to run, and the program's speed depends on
where its objects lie: with a float kept per tick, image_audit's rate on
one input ranged over 13% in eight runs; without, over 6% in twelve.
"""

from __future__ import annotations

import signal
import time

import numpy as np

TICK_S = 0.01
_MAX_TICKS = 1 << 17  # 22 minutes of ticks; later ones overwrite the first
# Median duration of _reference_kernel inside benchmark runs on a 2-vCPU KVM
# guest (Python 3.11, numpy 2.4).  It only sets the unit of the clock.
REFERENCE_S = 3.5e-4

_SMALL = np.arange(9.0).reshape(3, 3)
_MEDIUM = np.linspace(0.0, 1.0, 2000)


def _reference_kernel() -> float:
    # The two kinds of work in the program's per-datum loops: Python scalar
    # work on 3x3 arrays (eig3_sym) and whole-array numpy calls on a few
    # thousand elements (blur, gradient probes, resampling).  Between runs,
    # program time on this clock spread by 3.5-6.5%; on a clock of either
    # half alone by up to 16%, and on a pure-Python loop by up to 10%.
    a = _SMALL
    s = 0.0
    for _ in range(40):
        a = (a + a.T) * 0.5
        s += float(np.sqrt(a[0, 1] ** 2 + 1.0))
    v = _MEDIUM
    for _ in range(6):
        v = np.sin(v) * 0.5 + v * 0.25
    return s + float(v[0])


class CalibratedClock:
    """now() returns calibrated seconds since start(); stop() ends the timer."""

    def __init__(self):
        self._state = (0.0, time.perf_counter(), 1.0)  # (acc, mark, factor)
        self._times = np.zeros(_MAX_TICKS)
        self._ticks = 0
        self._previous = None

    def start(self) -> None:
        self._state = (0.0, time.perf_counter(), 1.0)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum, frame) -> None:
        acc, mark, _ = self._state
        t0 = time.perf_counter()
        _reference_kernel()
        t1 = time.perf_counter()
        factor = REFERENCE_S / (t1 - t0)
        self._times[self._ticks % _MAX_TICKS] = t1 - t0
        self._ticks += 1
        # One assignment, so now() never sees half an update.
        self._state = (acc + (t0 - mark) * factor, t1, factor)

    def reference_median(self) -> float:
        """Median duration of the reference kernel over the ticks so far."""
        return float(np.median(self._times[:min(self._ticks, _MAX_TICKS)]))

    def now(self) -> float:
        acc, mark, factor = self._state
        return acc + (time.perf_counter() - mark) * factor
