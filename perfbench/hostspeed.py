"""Host speed probe: every time the benchmark reports is scaled to one
reference host speed.

A shared host's speed moves by up to a third over minutes as other tenants
load it, and whole runs land in a fast or a slow phase; no run length the
time limit allows averages that out.  So the benchmark times a fixed
reference computation, the probe, just before and just after each unit of
work (a fresh process of verify_all, a pass of dense_balanced, a set-up)
and scales the unit's seconds by ``REFERENCE_S`` over the mean of the two
probe times.  The probe is frozen code in this directory: a change to
twistorcheck never moves it, so it moves the scaled times exactly as it
moves the raw ones.  run.py prints the raw times and the host speed too.
"""

from __future__ import annotations

import time

import numpy as np

# Probe seconds at the reference speed: the median on a 2-vCPU Xeon host
# under its usual load.  A scaled time reads in seconds at that speed.
REFERENCE_S = 0.20

# A fixed product table shaped like a small jet space's: 330 coefficient
# pairs summed into 33 coefficients, over a batch of 20 points.
_I = np.arange(330) % 35
_J = (np.arange(330) * 7) % 35
_STARTS = np.arange(0, 330, 10)


class _Series:
    """A stand-in for a truncated series: a coefficient array whose product
    gathers, multiplies and sums, as twistorcheck's jets kernel does."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        return _Series(np.add.reduceat(self.c[_I] * other.c[_J], _STARTS, axis=0))


def probe():
    """Seconds the reference computation takes now: small-array products
    with per-call Python overhead, then a pure-Python loop, the two kinds
    of work a twistorcheck run does, in about equal parts."""
    x = _Series(np.linspace(0.1, 1.0, 700).reshape(35, 20))
    y = _Series(x.c[::-1].copy())
    t0 = time.perf_counter()
    for _ in range(2500):
        x * y
    s = 0
    for i in range(1200000):
        s += i * i % 7
    return time.perf_counter() - t0


def scale(before, after):
    """Factor taking seconds measured between probes ``before`` and
    ``after`` to seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
