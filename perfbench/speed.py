"""The host's current speed, measured by a fixed piece of Python that is not qdrings.

The host this benchmark was written on runs the same code up to 2.5 times
slower in some stretches than in others.  The stretches last from a fraction
of a second to tens of seconds, and CPU time slows with wall time.  A run
therefore times a short calibration loop between its ops and scales each op's
latency to a reference host, on which `calibration_ms` reads `REFERENCE_MS`
(about what the host above reads in its fast stretches).  The loop does the
kind of work qdrings does (fraction arithmetic, big integers, small tuples
and dicts) but calls none of it, so a change to qdrings moves the scaled
times and a change of host speed does not.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_MS = 2.5  # calibration time on the reference host
REPEATS = 2  # the faster of two loops drops a preemption that hits one of them


def _work() -> int:
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 300):
        acc += Fraction(i, i * i + 1)
        acc = Fraction(acc.numerator % 10**40, acc.denominator % 10**40 + 1)
        key = (i % 97, i % 13)
        table[key] = [i, table.get(key, (0,))[0] + i]
    return len(table) + acc.denominator % 7


def calibration_ms() -> float:
    """Milliseconds the calibration loop takes now: the fastest of `REPEATS` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def to_reference(seconds: float, before_ms: float, after_ms: float) -> float:
    """Seconds measured between two calibrations, scaled to the reference host."""
    return seconds * REFERENCE_MS / ((before_ms + after_ms) / 2)
