"""Host speed, measured with a fixed reference loop that does not use nantree.

The host's speed drifts by up to a half within seconds, because other
tenants share its CPUs, and a drift slows nantree's Python and numpy work
and this loop alike. While a timed unit runs, :class:`Sampler` times the
loop every ``PERIOD_S`` from a ``SIGALRM`` handler in the main thread, so
each sample sees the same CPU at the same moment as the unit; it also
samples just before and after. The unit's times are then divided by its
slowdown, the median sample over ``REFERENCE_S``, the loop's time when
the host is undisturbed (Python 3.11, numpy 2.4, 2 vCPUs). The handler's
own time is kept out of the unit's times, and the raw times stay in the
``detail`` line of a run.
"""
from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 0.0073
PERIOD_S = 0.25
BRACKET = 3  # samples taken just before and just after a unit


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def reference_loop() -> float:
    """Object churn, dict updates and small numpy calls, as in tree growth."""
    pairs = [_Pair(i, i * 0.5) for i in range(5000)]
    sums: dict[int, float] = {}
    for p in pairs:
        sums[p.key % 101] = sums.get(p.key % 101, 0.0) + p.value
    x = np.arange(512, dtype=np.float64)
    for _ in range(160):
        x = np.cumsum(x[::-1]) % 1000.0
        x.argsort(kind="stable")
    return sum(sums.values()) + float(x[0])


class Sampler:
    """Samples the reference loop around and during a unit of work."""

    def __init__(self) -> None:
        self.paused_s = 0.0
        self._samples: list[float] = []
        self._busy = False

    def clock(self) -> float:
        """``perf_counter`` without the time spent sampling."""
        return time.perf_counter() - self.paused_s

    def _sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self._samples.append(dt)
        self.paused_s += dt
        self._busy = False

    @contextmanager
    def unit(self):
        """Yields a list that holds the unit's slowdown once the block ends."""
        result: list[float] = []
        self._samples = []
        for _ in range(BRACKET):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(BRACKET):
            self._sample()
        result.append(statistics.median(self._samples) / REFERENCE_S)
