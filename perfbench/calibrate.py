"""Machine-speed calibration for end-to-end times.

The benchmark shares its cores with other tenants, and their load moves
wall times by 30% or more within seconds. A fixed kernel that uses
nothing from the program, with every output preallocated, is timed right
after every measured operation. Each wall time is then reported at
reference speed: multiplied by ``(r / c) ** e``, where ``c`` is the
kernel's time next to it, ``r`` its time on an idle machine and ``e`` how
strongly the workload follows the kernel. Raw wall times are kept
alongside.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the small and the large kernel's times on an idle 2-core Xeon (numpy
# 2.4, OpenBLAS 0.3.31, one thread); they fix the unit of adjusted times
REFERENCE_S = {False: 0.45e-3, True: 7.5e-3}

# Contention slows the large kernel about twice as much as the workloads
# that use it: across runs, their times followed the square root of the
# kernel's (within-run slopes of log time on log kernel time: 0.3-0.5).
# Toy steps follow the small kernel one to one.
EXPONENT = {False: 1.0, True: 0.5}


class Calibrator:
    """Owns the kernel's preallocated operands.

    The small kernel (interpreter-bound calls, a small einsum, a gather and
    a streaming update, all cache-resident) tracks overhead-bound work.
    Workloads whose operations stream large arrays also add a large part:
    an einsum contraction and a 16 MB streaming update with a gather, which
    track contention for the memory system.
    """

    def __init__(self, large=False):
        rng = np.random.default_rng(12345)
        self.w = rng.standard_normal((64, 64)).astype(np.float32)
        self.x = rng.standard_normal((2, 64, 16, 16)).astype(np.float32)
        self.y = np.empty_like(self.x)
        self.m = rng.standard_normal(32 * 1024).astype(np.float32)
        self.index = rng.integers(0, self.m.size, self.m.size)
        self.g = np.empty_like(self.m)
        self.rows = self.w[:, :4].copy()
        self.large = large
        self.reference_s = REFERENCE_S[large]
        self.exponent = EXPONENT[large]
        if large:
            self.big_w = rng.standard_normal((128, 128)).astype(np.float32)
            self.big_x = rng.standard_normal((1, 128, 32, 24)).astype(np.float32)
            self.big_y = np.empty_like(self.big_x)
            self.big_a = rng.standard_normal(4_000_000).astype(np.float32)
            self.big_b = np.empty_like(self.big_a)
            self.big_index = rng.integers(0, 1_000_000, 1_000_000)
            self.big_g = np.empty(1_000_000, np.float32)

    def _kernel(self):
        acc = 0.0
        for i in range(40):
            acc += float(np.tanh(self.rows[i]).sum())
        np.einsum("kc,bchw->bkhw", self.w, self.x, out=self.y)
        np.take(self.m, self.index, out=self.g)
        np.multiply(self.g, 0.5, out=self.g)
        np.maximum(self.g, 0.0, out=self.g)
        if self.large:
            np.einsum("kc,bchw->bkhw", self.big_w, self.big_x, out=self.big_y)
            np.multiply(self.big_a, 0.5, out=self.big_b)
            np.take(self.big_a, self.big_index, out=self.big_g)
        return acc

    def kernel_seconds(self, after_s):
        """Median kernel time, measured after one warm-up run; longer
        operations get more timed runs (1 to 9)."""
        self._kernel()
        runs = []
        for _ in range(min(9, max(1, int(after_s / 0.1)))):
            t0 = perf_counter()
            self._kernel()
            runs.append(perf_counter() - t0)
        return statistics.median(runs)


def adjusted(seconds, kernel_seconds, reference_s, exponent):
    """Wall times expressed at reference machine speed."""
    return [t * (reference_s / k) ** exponent for t, k in zip(seconds, kernel_seconds)]
