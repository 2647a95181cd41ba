"""Wall times scaled by a reference probe measured next to them.

On the reference machine (a virtual machine with 2 CPUs) the CPUs run in
speed states that differ by about 1.7x and last from seconds to minutes:
in one process, the mean latency of 50-query windows of one index switched
between about 10 ms and 17 ms, with CPU time equal to wall time and no
steal.  A median over one run then reports whichever state held most of
that run.

So every timed operation is bracketed by a fixed reference computation (the
probe: float parsing, a dict join and a dot product, the kinds of work
lodrec does).  A time is reported as

    measured wall time * PROBE_REFERENCE_S / median(nearby probe times)

that is, in seconds on a machine where the probe takes PROBE_REFERENCE_S.
The probe shares no code with lodrec, so a change to lodrec moves the
scaled time exactly as much as it moves the wall time.  The raw wall times
are printed next to the scaled ones.  ``run.py`` leaves the stream's p95 in
wall time: the host's slow spells set the tail in every run, and scaling
it made it noisier.
"""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter

import numpy as np

PROBE_REFERENCE_S = 0.002
PROBES_PER_SIDE = 12  # probes just before and just after each timed sample
_VALUES = np.linspace(-1.0, 1.0, 300)
_CELLS = [f"{x:.6f}" for x in _VALUES]
_LEFT = {i: float(i) for i in range(0, 300, 3)}
_RIGHT = {i: float(i) for i in range(0, 300, 2)}


def probe_work() -> float:
    total = 0.0
    for _ in range(30):
        v = np.array([float(c) for c in _CELLS])
        total += float(np.dot(v, _VALUES)) / float(np.linalg.norm(v))
        total += math.fsum(_LEFT[k] * _RIGHT[k]
                           for k in sorted(_LEFT.keys() & _RIGHT.keys()))
    return total


class Clock:
    def __init__(self):
        self.probes: list[float] = []

    def probe(self) -> float:
        start = perf_counter()
        probe_work()
        took = perf_counter() - start
        self.probes.append(took)
        return took

    def measure(self, fn) -> tuple[float, list[float]]:
        """Wall seconds of ``fn()`` after ``gc.collect()``, and the probe
        times just before and after it."""
        before = [self.probe() for _ in range(PROBES_PER_SIDE)]
        gc.collect()
        start = perf_counter()
        fn()
        raw = perf_counter() - start
        after = [self.probe() for _ in range(PROBES_PER_SIDE)]
        return raw, before + after


def scale(probes: list[float], power: float = 1.0) -> float:
    """The factor from wall time to reference time, given nearby probes.

    ``power`` < 1 scales by only part of the probe's change of speed, for
    work that the host's speed states move less than they move the probe.
    """
    return (PROBE_REFERENCE_S / statistics.median(probes)) ** power


def scaled(samples: list[tuple[float, list[float]]],
           power: float = 1.0) -> list[tuple[float, float]]:
    """``(scaled, raw)`` per sample of one phase.

    A sample is scaled by its own probes and those of its neighbours in the
    phase: a few milliseconds of probing on either side of a sample that
    lasts seconds jitter more than the sample does.
    """
    out = []
    for i, (raw, _) in enumerate(samples):
        near = [p for _, probes in samples[max(i - 1, 0):i + 2] for p in probes]
        out.append((raw * scale(near, power), raw))
    return out
