"""Rescale measured times to a reference machine speed.

On a shared machine other tenants slow the benchmark's CPU by up to 2x in
episodes that last from seconds to a minute, longer than a benchmark run can
average out. A SIGALRM handler therefore times a small fixed computation
every ``INTERVAL`` seconds on the benchmark's own thread. A time measured
over [start, end] is multiplied by ``REFERENCE_S`` over the median probe time
near that interval, so it reads as seconds on a machine where the probe takes
``REFERENCE_S``. On an uncontended development machine (2-core Intel Xeon,
numpy 2.4 with OpenBLAS) the factor is close to 1.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.25  # seconds between probes
WINDOW = 1.0  # probes this close to an interval count towards its speed
REFERENCE_S = 7.5e-4  # median probe time on the uncontended development machine

_SMALL = np.arange(50.0)
_WIDE = np.exp(1j * np.linspace(0.0, 3.0, 50 * 256)).reshape(50, 256)


def reference_work() -> float:
    """Small-array dispatch like an SMO step, then 50 x 256 complex sweeps like a rotation."""
    total = 0.0
    for i in range(40):
        total += float(np.argmax(np.where(_SMALL > i, _SMALL, -np.inf)))
    z = _WIDE
    for _ in range(4):
        z = 0.5 * z + 0.5j * z[:, ::-1]
    return total + float(z[0, 0].real)


def rescale_now(seconds: float, probes: int = 15) -> float:
    """Reference seconds of a time just measured, from probes run right after it."""
    durations = []
    for _ in range(probes):
        t0 = time.perf_counter()
        reference_work()
        durations.append(time.perf_counter() - t0)
    return seconds * REFERENCE_S / statistics.median(durations)


class SpeedProbe:
    """Probe samples of one run; use as a context manager around the timed code."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def probe_seconds(self, start: float, end: float) -> float:
        """Probe time falling inside [start, end], to be taken out of a time measured over it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(d for s, d in zip(self.starts[lo:hi], self.durations[lo:hi]) if s + d <= end)

    def rescale(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval [start, end], probe time excluded."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        if lo == hi:  # no probe that close: take the nearest one
            k = min(bisect.bisect_left(self.starts, (start + end) / 2), len(self.starts) - 1)
            lo, hi = k, k + 1
        speed = REFERENCE_S / statistics.median(self.durations[lo:hi])
        return (end - start - self.probe_seconds(start, end)) * speed
