"""Machine-speed gauge for the timings.

On the two-core benchmark machine the core's speed drifts by up to 2x over
seconds (CPU time drifts with wall time, so it is not preemption), which
spreads raw medians by 10-30% from run to run.  Each sample is therefore
bracketed by a fixed reference kernel that runs no wipdyn code, and scaled to
the speed at which that kernel takes ``NOMINAL_S``:

    scaled = raw * NOMINAL_S / mean(kernel before, kernel after)

At nominal speed the scaled value is the raw one.  A change to wipdyn moves
the sample and not the kernel, so it shows in full.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel seconds on a 2-vCPU 2.1 GHz Xeon in its usual state.
NOMINAL_S = 0.050
KERNEL_STEPS = 8000


def kernel_seconds() -> float:
    """One run of the reference kernel: the scalar-math and 9-element numpy
    mix of an RK4 step, in plain Python and numpy."""
    t0 = time.perf_counter()
    y = np.zeros(9)
    acc = 0.0
    for k in range(KERNEL_STEPS):
        a, b = math.sin(k * 1e-3), math.cos(k * 1e-3)
        y = y + 1e-3 * np.array([a, b, a * b, 1.0, 2.0, 3.0, a, b, acc])
        if not np.isfinite(y).all():
            raise FloatingPointError("reference kernel diverged")
        acc += a * b
    return time.perf_counter() - t0


class Gauge:
    """Brackets samples with the kernel; adjacent samples share a kernel run."""

    def __init__(self):
        self._last = kernel_seconds()
        self.slowness: list[float] = []

    def scale(self, fn):
        """Run fn(); return its result and the factor that scales it to
        nominal speed."""
        before = self._last
        result = fn()
        self._last = kernel_seconds()
        mean = 0.5 * (before + self._last)
        self.slowness.append(mean / NOMINAL_S)
        return result, NOMINAL_S / mean
