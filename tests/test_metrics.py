from dataclasses import replace
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsce import (
    ScenarioConfig,
    SystemDims,
    benchmark_total_pilots,
    min_total_pilots,
    pilot_length_table,
    pooled_ratio,
    ratio_halfwidth,
    resolve_phase_plan,
    substream,
)
from irsce.config import EXTRA_POLICIES, SCHEMES
from irsce.errors import UndefinedMetricError


class TestPooledRatio:
    def test_ratio_of_sums(self):
        np.testing.assert_allclose(pooled_ratio([1.0, 2.0], [4.0, 4.0]), 3.0 / 8.0, rtol=1e-15)

    def test_order_independent(self):
        rng = substream(8)
        nums = list(rng.uniform(size=50))
        dens = list(rng.uniform(1, 2, size=50))
        a = pooled_ratio(nums, dens)
        b = pooled_ratio(list(reversed(nums)), list(reversed(dens)))
        assert a == b

    def test_zero_denominator_rejected(self):
        with pytest.raises(UndefinedMetricError):
            pooled_ratio([1.0, 2.0], [0.0, 0.0])

    def test_halfwidth_shrinks_with_trials(self):
        rng = substream(9)
        nums = rng.uniform(size=400)
        dens = rng.uniform(1, 2, size=400)
        wide = ratio_halfwidth(nums[:100], dens[:100])
        narrow = ratio_halfwidth(nums, dens)
        assert narrow < wide

    def test_single_trial_nan(self):
        assert np.isnan(ratio_halfwidth([1.0], [1.0]))


class TestPilotLengthTable:
    def test_fig3_spot_values(self):
        table = {(K, M): (prop, bench) for K, M, prop, bench in
                 pilot_length_table(32, range(1, 17), [8, 32])}
        assert table[(8, 32)] == (47, 264)
        assert table[(8, 8)] == (68, 264)
        assert table[(1, 8)] == (33, 33)  # proposed = benchmark = 1 + N

    def test_proposed_never_exceeds_benchmark(self):
        for K, M, prop, bench in pilot_length_table(32, range(1, 17), [8, 32]):
            assert prop <= bench

    def test_proposed_bound_grid_to_64(self):
        for K in (1, 2, 7, 16, 33, 64):
            for N in (1, 5, 32, 64):
                for M in (1, 3, 16, 64):
                    dims = SystemDims(K, N, M)
                    assert min_total_pilots(dims) <= benchmark_total_pilots(dims)

    def test_monotone_in_antennas_and_massive_limit(self):
        for K in (2, 5, 9):
            for N in (4, 32):
                lengths = [min_total_pilots(SystemDims(K, N, M)) for M in range(1, 65)]
                assert all(a >= b for a, b in zip(lengths, lengths[1:]))
                for M in range(N, 65):
                    assert min_total_pilots(SystemDims(K, N, M)) == 2 * K + N - 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 9), st.integers(1, 11), st.integers(1, 11), st.integers(0, 7),
       st.sampled_from(EXTRA_POLICIES))
def test_pilot_counts_are_the_resolved_plans(K, N, M, extra_slots, extra_policy):
    # the paper's pilot counts are the plans the schemes run with
    dims = SystemDims(K, N, M)
    cfg = replace(ScenarioConfig(), K=K, N=N, M=M, extra_slots=extra_slots,
                  extra_policy=extra_policy).validate()
    plans = {scheme: resolve_phase_plan(cfg, scheme) for scheme in SCHEMES}
    if K >= 2:
        assert plans["proposed-noiseless"].total == min_total_pilots(dims) + extra_slots
        # the orthogonal cycle, each user alone in ceil(N/M) slots, plus
        # Phase III's share of the extra slots
        share = extra_slots // 3 + (extra_slots % 3 == 2) if extra_policy == "even" else 0
        for scheme in ("proposed-lmmse", "phase2-onoff", "phase2-random"):
            assert plans[scheme].tau3 == (K - 1) * ceil(N / M) + share
    else:
        assert all(plan.tau3 == 0 for plan in plans.values())
    if extra_slots == 0:
        assert plans["benchmark"].total == benchmark_total_pilots(dims)
