"""Interpreter speed reference, so timings survive a shared host's drift.

On a few cores of a shared machine the speed of pure-Python code drifts by
30-60% within minutes, and every operation of a run slows alike.  A fixed
kernel of the same kind of work as the package (Python function calls,
tuples and float arithmetic in the double-double style) is timed next to
each operation; an operation's latency is scaled by

    REF_KERNEL_S / (median kernel time around it),

which gives its time at the reference speed: the speed at which the kernel
takes REF_KERNEL_S.  The kernel shares no code with the package, so a change
to the package cannot move it.

This module never imports the package.
"""

from __future__ import annotations

import statistics
import time

REF_KERNEL_S = 2.8e-4  # one kernel call at the reference speed
SAMPLES = 4  # kernel calls per sample

_SPLIT = 134217729.0


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def kernel() -> tuple[float, float]:
    """A fixed double-double harmonic-style sum: the same work on every call."""
    acc = (0.0, 0.0)
    x = 0.7310585786300049
    for k in range(1, 400):
        p, e = _two_prod(x, 1.0 / k)
        s, f = _two_sum(acc[0], p)
        acc = (s, f + e + acc[1])
        x = x * 0.999 + 0.001
    return acc


def sample() -> list[float]:
    """SAMPLES timings of the kernel, in seconds."""
    times = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return times


def factor(times: list[float]) -> float:
    """Multiplier that turns a time measured alongside `times` into reference-speed time."""
    return REF_KERNEL_S / statistics.median(times)
