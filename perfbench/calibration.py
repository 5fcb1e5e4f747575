"""A fixed reference kernel, timed between ops, that measures the host's speed.

On a shared host the speed swings, on the 2-vCPU machine described in
README.md about twofold in spells of seconds to minutes, so wall times of
whole runs spread by up to half their median.  The benchmark's gated throughput is therefore
rescaled to a reference host speed: each run times passes of this kernel
interleaved with its ops, and multiplies its throughput by the median pass
time over ``REFERENCE_PASS_S``.  The median ignores the first, cache-cold
pass after an op.  The kernel is the benchmark's own code, so
no change to ``foliation_lab`` changes it.  It mixes, in about equal time,
the kinds of work the workloads do: scalar Python arithmetic (the bounds
scans), numpy elementwise maths on a cache-sized grid (the profile kernels),
the same on an array larger than a core's cache (the memory traffic of the
large eigensolves) and dense BLAS products (the eigensolves and residual
norms).  Of these four, this mix tracked the speed of every gated workload
best.  It allocates nothing while it runs.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Typical time of one pass on the 2-vCPU machine described in README.md.  It
# only sets the scale of the rescaled times.
REFERENCE_PASS_S = 0.028


class Calibration:
    """Passes of the reference kernel and their times."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._grid = rng.standard_normal(1 << 15)
        self._grid_out = np.empty_like(self._grid)
        self._stream = rng.uniform(1.0, 2.0, 1 << 19)
        self._matrix = rng.standard_normal((256, 256))
        self._product = np.empty_like(self._matrix)
        self.times: list[float] = []

    def _pass(self) -> float:
        start = perf_counter()
        total = 0.0
        for i in range(1, 60001):
            total += (i * 1e-3) ** 0.5
        for _ in range(12):
            np.cos(self._grid, out=self._grid_out)
            np.multiply(self._grid_out, self._grid, out=self._grid_out)
        for _ in range(12):
            np.multiply(self._stream, 1.5, out=self._stream)
            np.multiply(self._stream, 1.0 / 1.5, out=self._stream)
        for _ in range(10):
            np.matmul(self._matrix, self._matrix, out=self._product)
        return perf_counter() - start

    def run_until(self, seconds: float) -> None:
        """Run passes until their total time reaches ``seconds``."""
        while sum(self.times) < seconds:
            self.times.append(self._pass())

    @property
    def slowdown(self) -> float:
        """Median pass time over the reference pass time."""
        return statistics.median(self.times) / REFERENCE_PASS_S
