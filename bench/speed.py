"""Machine-speed meter: scales measured times to a fixed reference speed.

The benchmark runs on shared hosts whose speed swings by up to a factor of
two within a few seconds, as other tenants' load comes and goes; the
process's CPU time swings with its wall time, so the loss is not waiting
but slower execution. A ``SpeedMeter`` follows those swings: while the
measured code runs, a timer interrupts it every ``INTERVAL_S`` to time one
slice of fixed work, and each stretch of the code's own time between two
slices is scaled by the ratio of the slice's reference time to the mean of
the two slices around it. A scaled time is thus the time the code would
take on a machine that runs the slice in its reference time, and a change
that makes the measured code faster lowers it in proportion.

The slices run only interpreter and numpy work of their own, never code of
the package under test, so no change to the package can change them.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02


class _Pair:
    __slots__ = ("first", "second")

    def __init__(self, first, second) -> None:
        self.first = first
        self.second = second


def interpreter_slice() -> None:
    """Integer arithmetic, dict stores, small objects and float formatting.

    For processes that have not imported numpy yet.
    """
    total = 0
    table = {}
    for i in range(500):
        total += i * i % 7
        table[i & 31] = total
    pairs = [_Pair(i, (i, i + 1)) for i in range(170)]
    ",".join(f"{i * 0.37:.17g},{i},{pair.first % 3}" for i, pair in enumerate(pairs[:45]))


_SMALL = None


def mixed_slice() -> None:
    """``interpreter_slice`` plus small numpy calls and random-generator set-up.

    The five kinds of work take about equal time. Host load slows them by
    different factors, and the package's workloads mix them in different
    proportions; an even mix follows each workload about as well as the
    best single kind for it.
    """
    global _SMALL
    import numpy as np

    if _SMALL is None:
        _SMALL = np.linspace(0.1, 1.0, 32)
    interpreter_slice()
    for i in range(20):
        float(np.exp(_SMALL[: 8 + i % 16]).sum())
    for key in range(3):
        np.random.Generator(np.random.Philox(key=key))


# Reference times of the slices: about their median on a shared 2-CPU
# 2.1 GHz Xeon virtual machine, so scaled times read close to wall times there.
INTERPRETER_SLICE_S = 2.5e-4
MIXED_SLICE_S = 5.0e-4


class SpeedMeter:
    """Time a block of code, excluding the meter's own work, and scale it.

    Used as a context manager around the block; afterwards ``own_s`` is the
    block's wall time minus the time spent in slices, ``scaled_s`` that time
    at the reference speed and ``overhead_s`` the time spent in slices.
    Only one meter may run at a time, in the main thread.
    """

    def __init__(self, work, reference_s: float) -> None:
        self._work = work
        self._reference_s = reference_s
        self.own_s = self.scaled_s = self.overhead_s = 0.0

    def _tick(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self._work()
        end = time.perf_counter()
        slice_s = end - start
        self.overhead_s += slice_s
        if self._slice_s is not None:
            gap = start - self._last
            self.own_s += gap
            self.scaled_s += gap * self._reference_s / ((self._slice_s + slice_s) / 2)
        self._slice_s = slice_s
        self._last = end
        self._busy = False

    def __enter__(self) -> SpeedMeter:
        self.own_s = self.scaled_s = self.overhead_s = 0.0
        self._busy = False
        self._slice_s = None
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    @property
    def factor(self) -> float:
        """Scaled time per second of own time: below 1 on a machine slower than the reference."""
        return self.scaled_s / self.own_s
