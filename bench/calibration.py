"""A fixed numpy-and-Python kernel that measures the host's current speed.

The host's speed drifts by up to 2x over seconds to minutes when other
tenants load it; the kernel slows down with the program, so a time divided
by the kernel's time is steady where raw milliseconds are not.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The kernel runs before a query once this long has passed since its last
# run, so it costs a few percent of the loop at most.
CALIB_EVERY_S = 0.05


def kernel(C: np.ndarray) -> None:
    """About 1 ms of the operations opnorm's inner loops are made of."""
    H = C.conj().T @ C
    x = np.ones(C.shape[1], dtype=complex)
    for _ in range(40):  # a power-iteration step, as in the ascent
        y = C @ x
        a = np.abs(y)
        x = (a / a.max()) ** 0.5 * (y / np.where(a > 0, a, 1.0))
        x = x / float(np.sum(np.abs(x)))
    for p in range(10):  # column rotations, as in the Jacobi sweeps
        for q in range(p + 1, 10):
            cp = H[:, p].copy()
            H[:, p] = 0.8 * cp - 0.6 * H[:, q]
            H[:, q] = 0.6 * cp + 0.8 * H[:, q]


class Calibration:
    """Times ``kernel`` between queries; ``unit_ms`` is the median of the
    last three kernel times."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20221)
        self.C = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self.samples: list[float] = []
        self._last = -math.inf

    def measure(self) -> float:
        """Run the kernel once; returns its time in ms."""
        start = time.perf_counter()
        kernel(self.C)
        self._last = time.perf_counter()
        self.samples.append((self._last - start) * 1000.0)
        return self.samples[-1]

    def unit_ms(self) -> float:
        if time.perf_counter() - self._last >= CALIB_EVERY_S:
            self.measure()
        return statistics.median(self.samples[-3:])
