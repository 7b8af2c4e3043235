"""Machine-speed reference for the benchmark's timings.

The benchmark runs on a few cores shared with other tenants.  Their load
changes how fast those cores run by 20-60% in phases that last from
seconds to minutes, so the same code's wall time moves with the hour it
ran at.  To take that out, every timed unit of work runs between two
probes of a fixed reference computation that uses nothing from
``adaptive_mc``.  The unit's time is reported at the reference speed:

    normalized = elapsed * REFERENCE_S / reference

where ``reference`` is the median time of the reference computation in
the probes just before and just after the unit.  A change to the program
moves ``elapsed`` and leaves ``reference`` alone; a slow phase of the
machine moves both.

The reference computation is CPU-bound: LAPACK least squares on a
2000 x 10 block (the shape of the program's restricted solves) and a
pure-Python loop.  Measured on the 2-core reference machine, the speed of
that pair tracked the workloads' slow phases; copies and gathers over a
64 MB array, tried as a memory-bound reference, did not.
"""

from __future__ import annotations

import statistics
import time
from typing import NamedTuple

import numpy as np

# Median seconds of one reference_work() call on the 2-core reference
# machine in a fast phase; normalized times are seconds at that speed.
REFERENCE_S = 0.010
# reference_work() calls per probe.
PROBE_SAMPLES = 8

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((2000, 10))
_B = _rng.standard_normal(2000)


def reference_work():
    """Fixed CPU-bound work, about 10 ms on the reference machine."""
    for _ in range(20):
        np.linalg.lstsq(_A, _B, rcond=None)
    sum(i * i for i in range(100_000))


def probe():
    """Seconds of each of PROBE_SAMPLES reference_work() calls."""
    times = []
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return times


class Timing(NamedTuple):
    elapsed: float       # wall seconds of the unit
    reference: float     # median reference_work() seconds around it

    @property
    def normalized(self):
        """Seconds at the reference speed."""
        return self.elapsed * REFERENCE_S / self.reference


class Clock:
    """Times units of work, each between two probes.

    Consecutive units share the probe between them, so a run is
    probe, unit, probe, unit, ..., probe.
    """

    def __init__(self):
        reference_work()                 # load LAPACK before the first probe
        self._last = probe()

    def time(self, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - start
        before, self._last = self._last, probe()
        return out, Timing(elapsed, statistics.median(before + self._last))


def median_normalized(timings):
    return statistics.median(t.normalized for t in timings)


def median_elapsed(timings):
    return statistics.median(t.elapsed for t in timings)
