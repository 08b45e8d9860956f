"""Evaluation quantities: pooled ratios, their confidence half-widths and
pilot-length comparisons.

The campaign's normalized MSEs are pooled ratios (sum of per-trial squared
errors over sum of per-trial squared norms) so that trial averaging matches
the expectation-of-sums reading; the per-trial numerator/denominator pairs
feed a delta-method confidence half-width.
"""

from __future__ import annotations

from math import fsum

import numpy as np

from .errors import UndefinedMetricError
from .model import SystemDims
from .schedule import benchmark_total_pilots, min_total_pilots


def pooled_ratio(nums, dens) -> float:
    """Ratio of per-trial sums, accumulated with compensated summation so the
    result is independent of trial evaluation order."""
    den = fsum(float(d) for d in dens)
    if den == 0.0:
        raise UndefinedMetricError("pooled ratio: zero denominator")
    return fsum(float(n) for n in nums) / den


def ratio_halfwidth(nums, dens, z: float = 1.96) -> float:
    """Delta-method confidence half-width of the pooled ratio. NaN for fewer
    than two trials."""
    nums = np.asarray(list(nums), dtype=float)
    dens = np.asarray(list(dens), dtype=float)
    T = nums.size
    if T < 2:
        return float("nan")
    r = pooled_ratio(nums, dens)
    resid = nums - r * dens
    var = float(np.mean(resid**2)) / (T * float(np.mean(dens)) ** 2)
    return z * float(np.sqrt(max(var, 0.0)))


def pilot_length_table(N: int, K_values, M_values) -> list[tuple[int, int, int, int]]:
    """Rows (K, M, proposed_minimum, benchmark) over a (K, M) grid at fixed N."""
    table = []
    for K in K_values:
        for M in M_values:
            dims = SystemDims(K=int(K), N=int(N), M=int(M))
            table.append((dims.K, dims.M, min_total_pilots(dims), benchmark_total_pilots(dims)))
    return table
