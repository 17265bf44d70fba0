"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of the whole machine drifts by tens of percent
within seconds: one request repeated back to back took from 67 ms to
128 ms, and its CPU time followed its wall time. A fixed piece of pure
Python work, run the way a request runs (in a child forked from the
benchmark's parent, timed from the fork until the child is reaped) right
before and right after each request, slows down and speeds up with it.
The benchmark therefore scales each request's time by ``REFERENCE_S`` over
the mean of the two calibrations around it: the time the request would
have taken on a host where the calibration takes ``REFERENCE_S``.

Over eight minutes of requests from ``face_ring`` and ``blowup_algebra``
on a 2-vCPU VM, the median of 40-second windows (each request over its
own median) had a quartile spread of 0.140 unscaled, 0.019 scaled by the
same kernel run in the parent, and 0.008 scaled by the forked kernel; per
request the spread was 0.293, 0.126 and 0.109.

The calibration runs no gradealg code, so a change to the program does
not change the calibration, and the scaled times move with the program
exactly as the raw times do.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

# Median of ``calibrate()`` on the host the benchmark was tuned on
# (2 vCPUs, Python 3.11). Only a unit: any fixed value would do.
REFERENCE_S = 0.007


def _kernel() -> int:
    """The kind of work gradealg does: rationals, modular row reduction,
    dictionaries keyed by exponent tuples."""
    acc = Fraction(0)
    terms: dict = {}
    for i in range(1, 1000):
        acc += Fraction(i % 97 + 1, (i * 7) % 89 + 1)
        key = (i % 50, i % 7, i % 11)
        terms[key] = terms.get(key, 0) + i * i
    rows = [[(i * j + 3) % 31 for j in range(24)] for i in range(24)]
    for p in range(24):
        pivot = rows[p][p] or 1
        for r in range(p + 1, 24):
            f = rows[r][p]
            if f:
                rows[r] = [(a * pivot - f * b) % 32003 for a, b in zip(rows[r], rows[p])]
    return acc.denominator + len(terms) + rows[-1][-1]


def calibrate() -> float:
    """Seconds this host takes now to fork a child that runs the kernel,
    and to reap it."""
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            _kernel()
        finally:
            os._exit(0)
    try:
        os.waitpid(pid, 0)
    except BaseException:
        os.waitpid(pid, 0)  # the child ends within milliseconds
        raise
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from a raw time to reference host speed, given the
    calibrations taken right before and right after it."""
    return REFERENCE_S / ((before + after) / 2.0)
