"""Reference kernel that measures the current speed of the CPU.

The shared hosts this benchmark runs on change speed by up to 1.8x for tens
of seconds at a time.  That moves the wall times of interpreter-bound code far
more than the bounds in BENCHMARK.json allow.  The kernel below is a fixed mix
of the work fluctlab does (interpreted Python, numpy calls on small arrays,
scipy.special on medium arrays) that depends on no fluctlab code.  It is
timed right before and right after each timed region; ``speed_factor`` turns
the two readings into the factor that scales a wall time to the reference
speed, at which the kernel takes ``REFERENCE_KERNEL_S``.  How strongly each
workload follows the kernel is set in workloads.SPEED_EXPONENT.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import j0

# kernel time at the reference speed: about its median on 2 vCPUs of an
# x86-64 shared host (Python 3.11, numpy 2.4, scipy 1.17)
REFERENCE_KERNEL_S = 0.025

_SMALL = np.linspace(0.0, 1.0, 512)
_MEDIUM = np.linspace(0.0, 50.0, 1 << 12)


def kernel_s() -> float:
    """Wall time of one run of the fixed reference kernel."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(60000):
        table[i & 255] = acc
        acc += (i * 0.5) % 7.0
    for i in range(500):
        acc += float(np.sum(np.sin(_SMALL * i) * np.exp(-_SMALL)))
    for i in range(20):
        acc += float(np.dot(j0(_MEDIUM + i), np.cos(_MEDIUM)))
    if acc != acc:  # never true; keeps the work observable
        raise AssertionError("reference kernel produced NaN")
    return time.perf_counter() - t0


def speed_factor(before_s: float, after_s: float, exponent: float) -> float:
    """Factor that scales a wall time measured between two kernel runs to the reference speed.

    ``exponent`` is how closely the timed work follows the kernel's speed:
    1 for work that slows down as much as the kernel, 0 for none.
    """
    return (REFERENCE_KERNEL_S / (0.5 * (before_s + after_s))) ** exponent
