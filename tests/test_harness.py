import csv
import math
import os
import pickle
import resource
import subprocess
import sys
import time
from dataclasses import astuple, replace
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from irsce import (
    ResultRow,
    ScenarioConfig,
    SystemDims,
    complex_normal,
    dft_block,
    draw_channels,
    emit_csv,
    min_tau3,
    min_total_pilots,
    resolve_phase_plan,
    run_campaign,
    run_scheme,
    scheme_key,
    substream,
)
from irsce import errors, harness, schedule
from irsce.config import EXTRA_POLICIES, PHASE3_G1_MODES, SCHEMES
from irsce.errors import DegenerateChannelError, InfeasibleScheduleError, InvalidGeometryError
from irsce.estimate import _received, estimate_lambda_priors, lmmse_weights, phase3_lmmse_all_slots
from irsce.harness import (
    CSV_COLUMNS,
    _scenario,
    _trial_chunk,
    build_context,
    phase_schedules,
    stream_keys,
)
from irsce.metrics import ratio_halfwidth
from irsce.model import _as_generator
from irsce.schedule import Schedule
from irsce.schemes import SCHEME_TABLE, Lmmse, OrthogonalLmmse, PerUserBaseline


def _in_fresh_interpreter(code: str, *argv: str) -> str:
    """Run `code` in a new Python process that imports this checkout's
    package, and return what it prints."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def _in_children(monkeypatch, fake):
    """Run `fake(ctx, trials)` in place of the trial chunks of forked
    children; the caller's own chunk runs as usual."""
    caller, real = os.getpid(), harness._trial_chunk

    def chunk(ctx, trials):
        return real(ctx, trials) if os.getpid() == caller else fake(ctx, trials)

    monkeypatch.setattr(harness, "_trial_chunk", chunk)


def small_config(**overrides) -> ScenarioConfig:
    base = dict(K=3, N=4, M=4, trials=8, seed=13, prior_draws=1000,
                schemes=("proposed-lmmse",))
    base.update(overrides)
    return replace(ScenarioConfig(), **base).validate()


class TestStreams:
    def test_scheme_key_stable(self):
        assert scheme_key("proposed-lmmse") == scheme_key("proposed-lmmse")
        assert scheme_key("proposed-lmmse") != scheme_key("benchmark")

    def test_substream_deterministic(self):
        a = substream(1, 2, 3).standard_normal(4)
        b = substream(1, 2, 3).standard_normal(4)
        assert np.array_equal(a, b)
        c = substream(1, 2, 4).standard_normal(4)
        assert not np.array_equal(a, c)

    @pytest.mark.filterwarnings("error")
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.integers(0, 2**32 - 1), min_size=5, max_size=5), min_size=1, max_size=9))
    @example([[0] * 5, [2**32 - 1] * 5, [0, 2**32 - 1, 0, 2**32 - 1, 0]])
    def test_stream_keys_equal_seed_sequence_keys(self, paths):
        expected = [np.random.SeedSequence(path).generate_state(2, np.uint64) for path in paths]
        keys = stream_keys(paths)
        assert keys.dtype == np.uint64 and keys.shape == (len(paths), 2)
        assert np.array_equal(keys, expected)

    def test_stream_keys_mask_words_as_substream_does(self):
        path = [-1, 2**32 + 7, 2**40, 3, 2**63 - 1]
        masked = [int(x) & 0xFFFFFFFF for x in path]
        assert np.array_equal(stream_keys([path])[0],
                              np.random.SeedSequence(masked).generate_state(2, np.uint64))
        with pytest.raises(ValueError):
            stream_keys([path[:3]])

    path_words = st.lists(st.integers(0, 2**32 - 1), min_size=5, max_size=5)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(path_words, path_words, st.sampled_from(("integers", "random", "standard_normal")),
           st.integers(0, 20))
    def test_rekeyed_generator_equals_substream(self, before, path, method, half):
        # a chunk's generator part-way through one stream, its Philox buffer
        # part-used by an odd number of draws (32-bit integers also keep a
        # spare half), then re-keyed to another path's stream
        rng = substream(*before, rng=np.random.Generator(np.random.Philox(key=0)),
                        key=stream_keys([before])[0].tolist())
        odd = 2 * half + 1
        if method == "integers":
            rng.integers(0, 2**32, size=odd, dtype=np.uint32)
        else:
            getattr(rng, method)(odd)
        assert substream(*path, rng=rng, key=stream_keys([path])[0].tolist()) is rng
        fresh = substream(*path)
        assert np.array_equal(rng.standard_normal(9), fresh.standard_normal(9))
        assert np.array_equal(rng.random(5), fresh.random(5))
        assert np.array_equal(rng.integers(0, 2**32, size=3, dtype=np.uint32),
                              fresh.integers(0, 2**32, size=3, dtype=np.uint32))

    @pytest.mark.parametrize("scheme", ["proposed-noiseless", "proposed-lmmse", "phase2-random"])
    def test_block_draws_no_seed_sequence(self, scheme, monkeypatch):
        # a chunk derives its keys without numpy's SeedSequence and draws
        # every stream from one bit generator
        ctx = build_context(small_config(schemes=(scheme,)), scheme)
        expected = _trial_chunk(ctx, list(range(6)))
        made, bit_generators = [], []
        philox = np.random.Philox

        class CountingSeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        def counting_philox(*args, **kwargs):
            bit_generators.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        monkeypatch.setattr(np.random, "Philox", counting_philox)
        assert np.array_equal(_trial_chunk(ctx, list(range(6))), expected)
        assert made == []
        assert len(bit_generators) <= 1

    def test_campaign_imports_no_numpy_ma(self):
        # in a fresh interpreter: pytest's own imports would load numpy.ma;
        # trial workers are forked directly, so no executor module is loaded
        code = ("import sys\n"
                "from irsce import ScenarioConfig, run_campaign\n"
                "run_campaign(ScenarioConfig(K=3, N=4, M=4, trials=8, threads=2, prior_draws=1000).validate())\n"
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
                "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures was imported'\n")
        _in_fresh_interpreter(code)


class TestResolvePhasePlan:
    def test_defaults_per_scheme(self):
        cfg = small_config()  # K=3, N=4, M=4 -> M >= N
        assert resolve_phase_plan(cfg, "proposed-noiseless").tau3 == 2
        assert resolve_phase_plan(cfg, "proposed-lmmse").tau3 == 2
        assert resolve_phase_plan(cfg, "benchmark").tau3 == 2 * 4
        narrow = small_config(M=1)
        assert resolve_phase_plan(narrow, "proposed-noiseless").tau3 == 8
        assert resolve_phase_plan(narrow, "proposed-lmmse").tau3 == 8

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_plan_build_per_context(self, scheme, monkeypatch):
        # the minimum tau3 is a closed form, so a context builds (and
        # validates) its on/off plan once, at the resolved tau3; the
        # per-user baseline has no plan
        calls = []
        real = schedule.validate_phase3_plan
        monkeypatch.setattr(schedule, "validate_phase3_plan", lambda plan: calls.append(plan) or real(plan))
        build_context(small_config(K=4, N=5, M=2, schemes=(scheme,)), scheme)
        assert len(calls) == (0 if scheme == "benchmark" else 1)

    def test_benchmark_needs_a_slot_per_user(self):
        cfg = small_config(tau3=1, schemes=("benchmark",))  # K = 3
        with pytest.raises(InfeasibleScheduleError, match=r"^benchmark needs tau3 >= K-1 = 2, got 1$"):
            resolve_phase_plan(cfg, "benchmark")

    def test_explicit_tau_respected(self):
        cfg = small_config(tau2=9, tau3=6)
        plan = resolve_phase_plan(cfg, "proposed-lmmse")
        assert (plan.tau1, plan.tau2, plan.tau3) == (3, 9, 6)

    # the benchmark rounds tau3 = 10 down to three whole 3-slot blocks; a
    # single user has no Phase III, whatever tau3 or the extra slots say
    @pytest.mark.parametrize("overrides", [
        dict(K=4, N=4, M=2, tau3=10),
        dict(K=1, tau3=5),
        dict(K=1, tau3=5, extra_slots=3, extra_policy="even"),
    ], ids=["K4-tau3-10", "K1-tau3-5", "K1-tau3-5-extra3-even"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_resolved_plan_is_the_run_plan(self, scheme, overrides):
        cfg = small_config(**overrides)
        assert resolve_phase_plan(cfg, scheme) == build_context(cfg, scheme).plan

    # what `irsce schedule` writes is what trial 0 of repetition 0 transmits
    @pytest.mark.parametrize("overrides", [
        dict(K=4, N=4, M=2, tau3=10, extra_slots=3, extra_policy="even"),
        dict(K=1),
    ], ids=["K4-N4-M2-tau3-10-extra3-even", "K1"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_schedules_are_the_run_schedules(self, scheme, overrides):
        cfg = small_config(**overrides)
        plan, *scheds = phase_schedules(cfg, scheme)
        ctx = build_context(cfg, scheme)
        refl2 = ctx.phase2.draw(substream(cfg.seed, ctx.skey, 0, 0, harness.TAG_SCHEDULE))
        assert plan == ctx.plan
        for got, want in zip(scheds, (ctx.sched1, Schedule(ctx.phase2.pilots, refl2), ctx.sched3)):
            assert np.array_equal(got.pilots, want.pilots)
            assert np.array_equal(got.reflections, want.reflections)


class TestCampaign:
    def test_noiseless_scheme_recovers_everything(self):
        cfg = small_config(schemes=("proposed-noiseless",), trials=4, M=2, N=5)
        row = run_campaign(cfg)[0]
        assert row.e_total < 1e-18
        assert row.e3 < 1e-18

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.integers(1, 8), st.integers(1, 24), st.integers(1, 24), st.integers(0, 4), st.integers(3, 4))
    @example(6, 12, 7, 0, 3)  # a leftover window wrapped past N
    @example(1, 5, 9, 4, 3)   # a single user, with extra slots
    @example(3, 2, 4, 0, 4)   # M > N
    def test_noiseless_recovery_is_exact_at_any_dims(self, K, N, M, extra, trials):
        cfg = small_config(K=K, N=N, M=M, trials=trials, extra_slots=extra, extra_policy="even",
                           schemes=("proposed-noiseless",))
        row = run_campaign(cfg)[0]
        if extra == 0:
            assert row.tau1 + row.tau2 + row.tau3 == min_total_pilots(SystemDims(K, N, M))
        errors = [row.e1, row.e2, row.e_total]
        if K == 1:  # no Phase III to score
            assert math.isnan(row.e3) and math.isnan(row.e3_g)
        else:
            errors += [row.e3, row.e3_g]
        assert all(e <= 1e-16 for e in errors), errors

    @pytest.mark.parametrize("K,N,M", [(8, 32, 32), (5, 8, 20)])
    def test_noiseless_recovery_is_exact_at_high_correlation(self, K, N, M):
        # IRS and IRS-BS correlations near 1 make user 1's columns nearly
        # parallel; (5, 8, 20) solves tall all-on systems
        cfg = small_config(K=K, N=N, M=M, trials=8, corr_irs_reflect=0.99999, corr_bs_reflect=0.99999,
                           schemes=("proposed-noiseless",))
        row = run_campaign(cfg)[0]
        errors = [row.e1, row.e2, row.e3, row.e3_g, row.e_total]
        assert all(e <= 1e-16 for e in errors), errors

    def test_repeat_run_identical(self):
        cfg = small_config(trials=2)
        a = run_campaign(cfg)[0]
        b = run_campaign(cfg)[0]
        assert a == replace(b, wall_clock=a.wall_clock)

    def test_thread_count_does_not_change_rows(self):
        cfg = small_config(trials=6)
        rows1 = run_campaign(replace(cfg, threads=1))
        rows2 = run_campaign(replace(cfg, threads=3))
        for r1, r2 in zip(rows1, rows2):
            assert r1 == replace(r2, wall_clock=r1.wall_clock)

    @staticmethod
    def _record_chunks(monkeypatch) -> tuple[list, list]:
        """Lists that collect the trials of the caller's own chunks and of
        the chunks it forks, one entry per forked worker."""
        caller, own, forked = os.getpid(), [], []
        fork_worker, trial_chunk = harness._fork_worker, harness._trial_chunk

        def recording_fork(contexts, trials):
            forked.append(trials)
            return fork_worker(contexts, trials)

        def recording_chunk(ctx, trials):
            if os.getpid() == caller:
                own.append(trials)
            return trial_chunk(ctx, trials)

        monkeypatch.setattr(harness, "_fork_worker", recording_fork)
        monkeypatch.setattr(harness, "_trial_chunk", recording_chunk)
        return own, forked

    def test_pool_no_larger_than_trial_count(self, monkeypatch):
        # at most one chunk per trial: the caller runs the first chunk and
        # forks one child for each of the other four
        own, forked = self._record_chunks(monkeypatch)
        cfg = small_config(trials=5)
        row = run_scheme(replace(cfg, threads=16), "proposed-lmmse")
        assert own == [[0]] and forked == [[1], [2], [3], [4]]
        assert row == replace(run_scheme(cfg, "proposed-lmmse"), wall_clock=row.wall_clock)

    @pytest.mark.parametrize("trials,own_trials,forked_trials", [(2, [0], [1]), (3, [0, 1], [2])],
                             ids=["2", "3"])
    def test_few_trials_still_split(self, monkeypatch, trials, own_trials, forked_trials):
        # two or three trials at two threads fork one child, as any other
        # trial count does
        own, forked = self._record_chunks(monkeypatch)
        cfg = small_config(trials=trials)
        row = run_scheme(replace(cfg, threads=2), "proposed-lmmse")
        assert own == [own_trials] and forked == [forked_trials]
        assert row == replace(run_scheme(cfg, "proposed-lmmse"), wall_clock=row.wall_clock)

    def test_one_fork_per_repetition(self, monkeypatch):
        # three schemes share each repetition's worker: two forks, not six;
        # sharing a repetition changes no row at one worker or at two, where
        # proposed-lmmse and phase2-random also share one lambda-prior draw
        own, forked = self._record_chunks(monkeypatch)
        schemes = ("proposed-lmmse", "phase2-random", "benchmark")
        cfg = small_config(trials=4, repetitions=2, schemes=schemes)
        rows = run_campaign(replace(cfg, threads=2))
        assert forked == [[2, 3], [2, 3]] and own == [[0, 1]] * 6
        serial = run_campaign(cfg)
        lone = []
        for rep in range(2):
            for scheme in schemes:
                monkeypatch.setattr(OrthogonalLmmse, "_prior_memo", None)
                lone.append(run_scheme(cfg, scheme, rep))
        assert [(r.rep, r.scheme) for r in rows] == [(r.rep, r.scheme) for r in lone]
        for alone, r1, r2 in zip(lone, serial, rows):  # benchmark's e3 columns are NaN
            np.testing.assert_equal(astuple(r1), astuple(replace(alone, wall_clock=r1.wall_clock)))
            np.testing.assert_equal(astuple(r2), astuple(replace(alone, wall_clock=r2.wall_clock)))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_order_at_every_worker_count(self, monkeypatch, threads):
        # the caller builds every context of a repetition, then runs its own
        # chunk of each, whether or not it forks a worker
        calls = []
        build, trial_chunk = harness.build_context, harness._trial_chunk

        def recording_build(config, scheme, rep=0):
            calls.append(("build", scheme, rep))
            return build(config, scheme, rep)

        def recording_chunk(ctx, trials):
            calls.append(("chunk", ctx.scheme, ctx.rep))
            return trial_chunk(ctx, trials)

        monkeypatch.setattr(harness, "build_context", recording_build)
        monkeypatch.setattr(harness, "_trial_chunk", recording_chunk)
        cfg = small_config(trials=4, repetitions=2, threads=threads, schemes=("proposed-lmmse", "phase2-random"))
        run_campaign(cfg)
        assert calls == [(step, scheme, rep) for rep in range(2) for step in ("build", "chunk")
                         for scheme in cfg.schemes]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_wall_clock_adds_up_to_at_most_the_campaign(self, monkeypatch, threads):
        # --timing's promise: a row covers at least its context build, and
        # the rows add up to no more than the campaign's wall time
        build_s = {}
        build = harness.build_context

        def timed_build(config, scheme, rep=0):
            t0 = time.perf_counter()
            ctx = build(config, scheme, rep)
            build_s[scheme, rep] = time.perf_counter() - t0
            return ctx

        monkeypatch.setattr(harness, "build_context", timed_build)
        cfg = small_config(trials=4, threads=threads, schemes=("proposed-lmmse", "phase2-random"))
        t0 = time.perf_counter()
        rows = run_campaign(cfg)
        elapsed = time.perf_counter() - t0
        assert sum(r.wall_clock for r in rows) <= elapsed
        assert all(r.wall_clock >= build_s[r.scheme, r.rep] for r in rows), (rows, build_s)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_single_user_rows(self, scheme):
        # a configured tau3 and extra Phase-III slots still give no Phase III
        cfg = small_config(K=1, trials=3, tau3=5, extra_slots=3, extra_policy="even", schemes=(scheme,))
        row = run_campaign(cfg)[0]
        assert row.tau3 == 0
        assert math.isnan(row.e3) and math.isnan(row.e3_pred) and math.isnan(row.e3_g)
        if scheme == "proposed-noiseless":
            assert row.e_total <= 1e-18  # exact recovery; nonzero only through round-off
        else:
            assert row.e_total > 0

    def test_benchmark_lambda_metric_undefined(self):
        cfg = small_config(schemes=("benchmark",), trials=3)
        row = run_campaign(cfg)[0]
        assert math.isnan(row.e3)
        assert row.e3_g > 0

    def test_baseline_filters_are_each_users_phase2_lmmse(self):
        # the baseline's folded filters, applied as one stacked product to a
        # block of trials, give each user's Phase-II-style LMMSE estimate from
        # that user's own weights, sqrt(p) Ybar Psi_k^-1 Phi^H cov_k
        sc = _scenario(small_config(K=4, N=5, M=3, schemes=("benchmark",)), "benchmark", 0)
        strat = PerUserBaseline(sc)
        (K, N, M), p = (sc.dims.K, sc.dims.N, sc.dims.M), sc.budget.p
        tau_b = sc.sched3.tau // (K - 1)
        ybar3 = complex_normal(substream(71), (2, M, (K - 1) * tau_b), 1.0)
        lam_hat, g_rest, e3_pred = strat.estimate(ybar3, None, None, sc)
        assert g_rest.shape == (2, K - 1, M, N) and math.isnan(lam_hat) and math.isnan(e3_pred)
        s2, tau1 = sc.budget.sigma2, sc.plan.tau1
        for k in range(2, K + 1):
            beta = float(sc.beta_bu[k - 1])
            c = p * M * beta * s2 / (beta * p * tau1 + s2)
            psi = c * np.ones((tau_b, tau_b)) + M * s2 * np.eye(tau_b)
            w = lmmse_weights(dft_block(N, tau_b).conj().T, 1, p, np.linalg.inv(psi),
                              np.linalg.inv(sc.reflected_gram(k)))
            want = w.estimate(ybar3[..., (k - 2) * tau_b:(k - 1) * tau_b], p)
            np.testing.assert_allclose(g_rest[:, k - 2], want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_random_pattern_shorter_than_n_fails_at_build(self, monkeypatch):
        # a random pattern, like the fixed ones, needs tau2 >= N; it is drawn
        # only in the trials, so tau2 is checked where the scenario is
        # resolved: before the prior draw and before any worker is forked
        def called(*args, **kwargs):
            raise AssertionError("called after tau2 < N was known")

        monkeypatch.setattr("irsce.schemes.estimate_lambda_priors", called)
        monkeypatch.setattr(OrthogonalLmmse, "_prior_memo", None)
        monkeypatch.setattr(os, "fork", called)
        cfg = small_config(K=3, N=8, M=4, tau2=4, schemes=("phase2-random",))
        with pytest.raises(InfeasibleScheduleError, match=r"^tau2=4 < N=8$"):
            build_context(cfg, "phase2-random")
        with pytest.raises(InfeasibleScheduleError, match=r"^tau2=4 < N=8$"):
            run_campaign(replace(cfg, threads=2))

    @pytest.mark.parametrize("scheme, over", [
        ("proposed-lmmse", dict(extra_slots=100_000, extra_policy="phaseII")),
        ("phase2-random", dict(extra_slots=100_000, extra_policy="phaseII")),
        ("benchmark", dict(tau3=100_000)),
    ], ids=("proposed-lmmse", "phase2-random", "benchmark"))
    def test_long_pilot_blocks(self, scheme, over):
        # Psi_2^-1 is applied in closed form: a Phase-II or baseline block of
        # 10^5 slots needs memory linear in its length, where a dense
        # tau x tau covariance would take 149 GiB
        row = run_scheme(small_config(K=2, N=2, M=2, trials=2, schemes=(scheme,), **over), scheme)
        assert max(row.tau2, row.tau3) >= 100_000
        assert all(math.isfinite(v) for v in (row.e1, row.e2, row.e_total))

    def test_proposed_beats_benchmark_at_matched_budget(self):
        # reduced-size counterpart of the Phase-III comparison figure
        cfg = small_config(K=4, N=4, M=4, trials=60, tau3=3, prior_draws=2000)
        prop = run_scheme(cfg, "proposed-lmmse")
        bench = run_scheme(cfg, "benchmark")
        assert prop.e3_g < bench.e3_g

    def test_phase2_policy_beats_phase1_policy(self):
        # extra training budget helps most in Phase II (error propagation);
        # asserted both on the scaling-factor metric (with its CI slack, the
        # quantity is heavy-tailed) and strictly on the stable reflected-
        # channel metric
        cfg = small_config(trials=400, seed=21, extra_slots=8, prior_draws=3000)
        rows = {policy: run_scheme(replace(cfg, extra_policy=policy), "proposed-lmmse")
                for policy in ("phaseI", "phaseII")}
        assert rows["phaseII"].e3 <= rows["phaseI"].e3 + rows["phaseI"].e3_ci
        assert rows["phaseII"].e3_g < rows["phaseI"].e3_g

    def test_repetitions_emit_multiple_rows(self):
        cfg = small_config(trials=2, repetitions=2, schemes=("proposed-lmmse", "benchmark"))
        rows = run_campaign(cfg)
        assert [(r.rep, r.scheme) for r in rows] == [
            (0, "proposed-lmmse"), (0, "benchmark"), (1, "proposed-lmmse"), (1, "benchmark")]

    @pytest.mark.skipif(harness._malloc_trim is None, reason="needs glibc's malloc and malloc_trim")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_trial_blocks_do_not_fault_their_temporaries_in_again(self, threads):
        # a benchmark-only run draws no lambda prior, the only earlier large
        # allocation that would raise glibc's mmap threshold; in a fresh
        # interpreter, the minor faults a run adds per trial, from 40 to 80
        # trials, in the caller or in its forked worker. Without the raised
        # threshold each default-dims trial faults about 160 pages in.
        code = ("import resource, sys\n"
                "from irsce import ScenarioConfig, run_scheme\n"
                "threads, trials = int(sys.argv[1]), int(sys.argv[2])\n"
                "who = resource.RUSAGE_SELF if threads == 1 else resource.RUSAGE_CHILDREN\n"
                "before = resource.getrusage(who).ru_minflt\n"
                "cfg = ScenarioConfig(schemes=('benchmark',), trials=trials, threads=threads).validate()\n"
                "run_scheme(cfg, 'benchmark')\n"
                "print(resource.getrusage(who).ru_minflt - before)\n")
        faults = [int(_in_fresh_interpreter(code, str(threads), str(trials))) for trials in (40, 80)]
        added_per_worker = 40 // threads  # the caller runs the first chunk, the worker the second
        assert (faults[1] - faults[0]) / added_per_worker < 20, faults

    @pytest.mark.skipif(harness._malloc_trim is None, reason="needs glibc's malloc and malloc_trim")
    def test_a_second_scheme_starts_no_second_worker(self):
        # in a fresh interpreter at two threads, the forked worker's minor
        # faults for a campaign of two schemes less those for the first
        # scheme alone: the second scheme's chunk runs in the worker the
        # first one forked, so it adds its own faults but no process start-up,
        # about 1200 faults per forked worker at default dims: the bound is
        # half of that
        code = ("import resource, sys\n"
                "from irsce import ScenarioConfig, run_campaign\n"
                "cfg = ScenarioConfig(schemes=tuple(sys.argv[1:]), trials=20, threads=2, prior_draws=1000)\n"
                "before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt\n"
                "run_campaign(cfg.validate())\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before)\n")
        one, two = (int(_in_fresh_interpreter(code, *schemes))
                    for schemes in (["proposed-lmmse"], ["proposed-lmmse", "phase2-random"]))
        assert two - one < 600, (one, two)

    @pytest.mark.skipif(harness._malloc_trim is None, reason="needs glibc's malloc_trim")
    def test_pool_workers_do_not_inherit_freed_heap(self, monkeypatch):
        # only the forked child's peak counts: the caller's own peak RSS
        # includes the context build and every heap page freed since
        caller = os.getpid()

        def child_peak_kib(ctx, trials):
            return [0 if os.getpid() == caller else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]

        monkeypatch.setattr(harness, "_trial_chunk", child_peak_kib)
        monkeypatch.setattr(harness, "_aggregate", lambda ctx, outcomes, wall: outcomes)
        cfg = small_config(trials=4, threads=2)
        before = max(run_scheme(cfg, "proposed-lmmse"))
        # 64 MiB of freed heap blocks below a live one, out of reach of a
        # top-of-heap trim; a forked worker would copy all of it
        blocks = [np.ones(8192) for _ in range(1024)]
        kept = blocks[-1]
        del blocks
        after = max(run_scheme(cfg, "proposed-lmmse"))
        assert kept.sum() == 8192
        assert before > 0 and after - before < 16 * 1024


@st.composite
def validated_configs(draw) -> ScenarioConfig:
    """A config that passes validation and runs one scheme, 1-3 trials, at
    1000 prior draws. Each tau is the scheme's minimum (None) or 1 to 4
    times a reference length, K, N or the paper's minimum tau3, so it may
    fall below what the scheme needs; extra slots go up to 2N. A run's
    memory grows with its pilot length and no config key caps it, so these
    bounds are what keep every example small."""
    K, N, M = draw(st.integers(1, 6)), draw(st.integers(1, 12)), draw(st.integers(1, 12))

    def tau(reference: int) -> int | None:
        return draw(st.one_of(st.none(), st.integers(1, 4 * max(reference, 1))))

    corr = st.sampled_from((0.0, 0.5, 0.99, 0.999999))
    cfg = replace(
        ScenarioConfig(), K=K, N=N, M=M,
        tau1=tau(K), tau2=tau(N), tau3=tau(min_tau3(SystemDims(K, N, M))),
        extra_slots=draw(st.integers(0, 2 * N)), extra_policy=draw(st.sampled_from(EXTRA_POLICIES)),
        schemes=(draw(st.sampled_from(SCHEMES)),), phase3_g1=draw(st.sampled_from(PHASE3_G1_MODES)),
        corr_bs_direct=draw(corr), corr_bs_reflect=draw(corr), corr_irs_reflect=draw(corr),
        corr_irs_user=draw(corr),
        power_dbm=draw(st.floats(-150, 150)), noise_psd_dbm_hz=draw(st.floats(-250, -100)),
        beta0_db=draw(st.floats(-60, 0)),
        trials=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32 - 1)), prior_draws=1000,
    )
    return cfg.validate()


# every run of a validated config gives finite MSEs or one of the package's
# typed errors, never a bare numpy or Python exception
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(validated_configs())
def test_validated_configs_run_or_raise_a_typed_error(cfg):
    try:
        row = run_scheme(cfg, cfg.schemes[0])
    except Exception as exc:  # noqa: BLE001 - the type is what is checked
        assert type(exc).__module__ == errors.__name__, repr(exc)
    else:
        assert all(math.isfinite(v) for v in (row.e1, row.e2, row.e_total)), row


def _outcomes_at(cfg: ScenarioConfig, threads: int):
    """The outcome bytes of the config's scheme over the chunks that
    `_run_repetition` forms at `threads`, or the type and message of the
    error that building the context or running a chunk raises."""
    chunks = [c.tolist() for c in np.array_split(np.arange(cfg.trials), min(threads, cfg.trials))]
    try:
        (outcomes,), _ = harness._run_chunks([build_context(cfg, cfg.schemes[0])], chunks)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        assert type(exc).__module__ == errors.__name__, repr(exc)
        return type(exc), str(exc)
    return outcomes.tobytes()


# every outcome field, NaN included, is bit-for-bit the same at one and at two
# workers; 3 trials split as [0, 1] and [2], so each example forks one child
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(validated_configs())
def test_validated_configs_give_equal_outcomes_at_one_and_two_workers(cfg):
    cfg = replace(cfg, trials=3)
    assert _outcomes_at(cfg, 1) == _outcomes_at(cfg, 2)


@st.composite
def noisy_dims(draw) -> dict:
    """K 1..4, N and M 1..8, one correlation on all four links and tau2 of
    N, 2N or 4N."""
    K, N, M = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    c = draw(st.sampled_from((0.0, 0.5, 0.9, 0.99)))
    return dict(K=K, N=N, M=M, tau2=N * draw(st.sampled_from((1, 2, 4))),
                corr_bs_direct=c, corr_bs_reflect=c, corr_irs_reflect=c, corr_irs_user=c,
                seed=draw(st.integers(0, 2**32 - 1)))


# the closed forms of Phases I and II agree with the simulation: over 300
# trials, each pooled MSE lies within 3 of its CI half-widths of its pooled
# prediction
@pytest.mark.parametrize("scheme", ["proposed-lmmse", "benchmark", "phase2-onoff", "phase2-random"])
@settings(max_examples=24, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(noisy_dims())
def test_phase1_and_phase2_closed_forms_match_simulation(scheme, dims):
    cfg = replace(ScenarioConfig(), **dims, schemes=(scheme,), trials=300, prior_draws=1000).validate()
    ctx = build_context(cfg, scheme)
    o = _trial_chunk(ctx, list(range(cfg.trials)))
    row = harness._aggregate(ctx, o, 0.0)
    e1_ci = ratio_halfwidth(o["e1_num"], o["e1_den"])
    assert abs(row.e1 - row.e1_pred) <= 3 * e1_ci, (row.e1, row.e1_pred, e1_ci)
    assert abs(row.e2 - row.e2_pred) <= 3 * row.e2_ci, (row.e2, row.e2_pred, row.e2_ci)


class TestForkedChunks:
    def test_child_exception_reaches_caller(self, monkeypatch):
        def degenerate(ctx, trials):
            raise DegenerateChannelError(f"rank-deficient draw in trials {trials}")

        _in_children(monkeypatch, degenerate)
        with pytest.raises(DegenerateChannelError, match=r"^rank-deficient draw in trials \[2, 3\]$") as err:
            run_scheme(small_config(trials=4, threads=2), "proposed-lmmse")
        assert "in trial worker" in str(err.value.__cause__)

    def test_child_without_result_names_its_status(self, monkeypatch):
        _in_children(monkeypatch, lambda ctx, trials: os._exit(3))
        with pytest.raises(RuntimeError, match="exited with status 3 without a result"):
            run_scheme(small_config(trials=4, threads=2), "proposed-lmmse")

    def test_child_exception_in_a_second_scheme_reaches_caller(self, monkeypatch):
        # the worker runs the first scheme's chunk, then fails in the second's
        def degenerate_second(ctx, trials):
            if ctx.scheme == "phase2-random":
                raise DegenerateChannelError(f"rank-deficient draw in {ctx.scheme} trials {trials}")
            return _trial_chunk(ctx, trials)

        _in_children(monkeypatch, degenerate_second)
        cfg = small_config(trials=4, threads=2, schemes=("proposed-lmmse", "phase2-random"))
        with pytest.raises(DegenerateChannelError,
                           match=r"^rank-deficient draw in phase2-random trials \[2, 3\]$") as err:
            run_campaign(cfg)
        assert "in trial worker" in str(err.value.__cause__)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open fds in /proc/self/fd")
    def test_failed_fork_leaks_no_pipe(self, monkeypatch):
        # the second of two forks fails: the error reaches the caller, the
        # first child is reaped and no pipe end stays open
        forks, fork = [], os.fork

        def failing_second_fork():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError("fork: resource temporarily unavailable")
            return fork()

        cfg = small_config(trials=6, threads=3)
        open_fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", failing_second_fork)
        with pytest.raises(BlockingIOError):
            run_campaign(cfg)
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(os.listdir("/proc/self/fd")) == open_fds

    @staticmethod
    def _check_failed_caller_chunk(monkeypatch, failing: str, run: Callable[[], object]) -> None:
        """`run()` raises the error of the caller's chunk of scheme `failing`,
        after its chunks of earlier schemes ran, without waiting for the
        forked chunks, which sleep for a minute, and leaves no child."""
        caller = os.getpid()

        def chunk(ctx, trials):
            if os.getpid() != caller:
                time.sleep(60)
            elif ctx.scheme == failing:
                raise ValueError("the caller's chunk failed")
            return _trial_chunk(ctx, trials)

        monkeypatch.setattr(harness, "_trial_chunk", chunk)
        started = time.monotonic()
        with pytest.raises(ValueError, match="the caller's chunk failed"):
            run()
        assert time.monotonic() - started < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_child_outlives_a_failed_caller_chunk(self, monkeypatch):
        self._check_failed_caller_chunk(
            monkeypatch, "proposed-lmmse", lambda: run_scheme(small_config(trials=6, threads=3), "proposed-lmmse"))

    def test_no_child_outlives_a_failed_caller_chunk_of_a_second_scheme(self, monkeypatch):
        cfg = small_config(trials=6, threads=3, schemes=("proposed-lmmse", "phase2-random"))
        self._check_failed_caller_chunk(monkeypatch, "phase2-random", lambda: run_campaign(cfg))


class TestPriorMemo:
    def test_one_draw_per_repetition(self, monkeypatch):
        calls = []
        draw = estimate_lambda_priors

        def counting(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr("irsce.schemes.estimate_lambda_priors", counting)
        monkeypatch.setattr(OrthogonalLmmse, "_prior_memo", None)
        cfg = small_config(K=4, N=5, M=2)
        schemes = ("proposed-lmmse", "phase2-onoff", "phase2-random")
        warm = [build_context(cfg, scheme, 0) for scheme in schemes]
        assert len(calls) == 1
        build_context(cfg, "proposed-lmmse", 1)
        assert len(calls) == 2
        _, priors = OrthogonalLmmse.moments(_scenario(cfg, "phase2-random", 1))
        assert len(calls) == 2
        assert priors and not any(C.flags.writeable for C in priors.values())

        for scheme, ctx in zip(schemes, warm):
            monkeypatch.setattr(OrthogonalLmmse, "_prior_memo", None)
            assert pickle.dumps(build_context(cfg, scheme, 0)) == pickle.dumps(ctx), scheme

    def test_key_is_what_fixes_the_priors(self, monkeypatch):
        calls = []
        draw = estimate_lambda_priors

        def counting(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr("irsce.schemes.estimate_lambda_priors", counting)
        monkeypatch.setattr(OrthogonalLmmse, "_prior_memo", None)
        # users at the disc center: the seed then fixes only the statistics
        # seed, not the path losses
        base = small_config(K=4, N=5, M=2, user_radius_m=0.0)
        build_context(base, "proposed-lmmse")
        for same in (dict(tau2=9), dict(trials=3), dict(threads=2), dict(power_dbm=20.0)):
            cfg = replace(base, **same).validate()
            shared = build_context(cfg, "proposed-lmmse")
            assert len(calls) == 1, same
            monkeypatch.setattr(OrthogonalLmmse, "_prior_memo", None)
            assert pickle.dumps(build_context(cfg, "proposed-lmmse")) == pickle.dumps(shared), same
            del calls[1:]
        for other in (dict(corr_irs_user=0.3), dict(alpha_irs_user=2.5), dict(prior_draws=1500),
                      dict(prior_cap_scale=5.0), dict(seed=14)):
            build_context(base, "proposed-lmmse")
            drawn = len(calls)
            build_context(replace(base, **other).validate(), "proposed-lmmse")
            assert len(calls) == drawn + 1, other

    def test_slot_set_is_part_of_the_key(self, monkeypatch):
        monkeypatch.setattr(OrthogonalLmmse, "_prior_memo", None)
        cfg = small_config(K=4, N=5, M=2)
        sc = _scenario(cfg, "proposed-lmmse", 0)
        singles = replace(sc, layout=_scenario(replace(cfg, M=1), "proposed-lmmse", 0).layout)
        OrthogonalLmmse.moments(sc)
        _, priors = OrthogonalLmmse.moments(singles)
        assert priors and all(len(elements) == 1 for _, elements in priors)


class TestPerfectPhase3Columns:
    def test_phase3_solved_once_per_size_class(self, monkeypatch):
        # with phase3_g1 = perfect the estimate and e3_pred come from the
        # true columns, as with estimated columns they do from g1_hat; M < N
        # gives two subset sizes, hence two classes: per trial one Cholesky
        # factorization per class, and no inverse or solve
        cfg = small_config(N=5, M=2, phase3_g1="perfect")
        ctx = build_context(cfg, "proposed-lmmse")
        strat, p = ctx.phase3, ctx.budget.p
        assert sorted(c.elements.shape[1] for c in strat.classes) == [1, 2]

        chan = draw_channels(ctx.dims, ctx.corr, ctx.loss, 31)
        ybar3 = _received(chan, ctx.sched3.pilots, ctx.sched3.reflections, ctx.budget.p) + complex_normal(
            _as_generator(32), (ctx.dims.M, ctx.sched3.tau), ctx.budget.sigma2)
        lam_hat, _, e3_pred = strat.estimate(ybar3, chan, 2.0 * chan.g1, ctx)
        lam_ref, e3_ref = phase3_lmmse_all_slots(ybar3, ctx.layout, chan.g1, p, strat.classes)
        assert np.array_equal(lam_hat, lam_ref)
        assert e3_pred == e3_ref

        factored, inverted, solved = [], [], []
        cholesky, inv, solve = np.linalg.cholesky, np.linalg.inv, np.linalg.solve
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a.shape) or cholesky(a))
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.shape) or inv(a))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a.shape) or solve(a, b))
        for t in range(3):
            _trial_chunk(ctx, [t])
        assert len(factored) == 3 * len(strat.classes)
        assert inverted == solved == []


class TestEstimatedPhase3Columns:
    def test_one_inverse_per_class_and_no_noise_solve(self, monkeypatch):
        # Psi_2^-1 and Psi_3^-1 are formed with the context: a trial inverts
        # each class's posterior precision once, through one Cholesky
        # factorization, for the estimate and e3_pred alike, plus a random
        # Phase-II pattern's posterior precision, and calls no dense inverse
        # and no solve
        cfg = small_config(N=5, M=2)
        cases = (("proposed-lmmse", 0), ("phase2-random", 1))
        contexts = {scheme: build_context(cfg, scheme) for scheme, _ in cases}
        ctx = contexts["proposed-lmmse"]
        plan, budget = ctx.plan, ctx.budget
        p, s2, M, beta1 = budget.p, budget.sigma2, ctx.dims.M, float(ctx.beta_bu[0])
        c = p * M * beta1 * s2 / (beta1 * p * plan.tau1 + s2)
        psi2 = c * np.ones((plan.tau2, plan.tau2)) + M * s2 * np.eye(plan.tau2)
        psi3, _ = OrthogonalLmmse.moments(_scenario(cfg, "proposed-lmmse", 0))

        factored, inverted, solved = [], [], []
        cholesky, inv, solve = np.linalg.cholesky, np.linalg.inv, np.linalg.solve
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a) or cholesky(a))
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a) or solve(a, b))
        for scheme, phase2_factors in cases:
            ctx = contexts[scheme]
            classes = len(ctx.phase3.classes)
            assert classes == 2
            factored.clear()
            inverted.clear()
            solved.clear()
            for t in range(3):
                _trial_chunk(ctx, [t])
            assert len(factored) == 3 * (classes + phase2_factors), scheme
            assert inverted == solved == [], scheme
            for a in factored:
                for m in a.reshape(-1, *a.shape[-2:]):
                    assert not any(np.array_equal(m, psi) for psi in (psi2, *psi3.values())), scheme


class TestPhase2Weights:
    @pytest.mark.parametrize("scheme", ["proposed-lmmse", "benchmark", "phase2-onoff", "phase2-random"])
    def test_fixed_pattern_weighted_at_build_random_once_per_block(self, scheme, monkeypatch):
        # the noise model weights a fixed Phase-II pattern once, when the
        # context is built; a random pattern's blocks of 4, 4 and 2 trials
        # are weighted once each, as one stack
        calls = []
        real = Lmmse.weights
        monkeypatch.setattr(Lmmse, "weights",
                            lambda self, refl2, sc: calls.append(refl2.shape) or real(self, refl2, sc))
        monkeypatch.setattr(harness, "_block_size", lambda ctx: 4)
        ctx = build_context(small_config(), scheme)
        N, tau2 = ctx.dims.N, ctx.plan.tau2
        built = list(calls)
        _trial_chunk(ctx, list(range(10)))
        if SCHEME_TABLE[scheme].phase2 is None:
            assert built == [] and ctx.noise.fixed_weights is None
            assert calls == [(4, N, tau2), (4, N, tau2), (2, N, tau2)]
        else:
            assert built == calls == [(N, tau2)]
            assert pickle.loads(pickle.dumps(ctx)).noise.fixed_weights.mse == ctx.noise.fixed_weights.mse


class TestEmitCsv:
    def _row(self, **over):
        base = dict(scheme="proposed-lmmse", K=2, N=2, M=2, tau1=2, tau2=2, tau3=1,
                    rep=0, seed=1, trials=3, e1=0.25, e1_pred=0.25,
                    e2=1.0 / 3.0, e2_pred=0.3, e2_ci=0.01,
                    e3=float("nan"), e3_pred=float("nan"), e3_ci=float("nan"),
                    e3_g=0.5, e_total=0.125, e_total_ci=0.004, wall_clock=1.23)
        base.update(over)
        return ResultRow(**base)

    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_roundtrip_parse(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit_csv([self._row()], path)
        with open(path) as f:
            rec = next(csv.DictReader(f))
        assert rec["scheme"] == "proposed-lmmse"
        assert int(rec["K"]) == 2
        assert float(rec["e2"]) == pytest.approx(1.0 / 3.0, rel=1e-11)
        assert math.isnan(float(rec["e3"]))
        assert "wallclock_s" not in rec

    def test_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        emit_csv([self._row(e2=math.pi / 10)], path)
        body = path.read_text().splitlines()[1]
        assert "0.314159265359" in body

    def test_timing_column_opt_in(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv([self._row()], path, include_timing=True)
        with open(path) as f:
            rec = next(csv.DictReader(f))
        assert float(rec["wallclock_s"]) == pytest.approx(1.23)

    @pytest.mark.parametrize("dims", [dict(N=4, M=4), dict(N=5, M=2)], ids=["M>=N", "M<N"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_byte_identical_across_campaigns(self, tmp_path, scheme, dims):
        # M < N runs the two-stage noiseless plan and multi-slot orthogonal plan
        cfg = small_config(trials=5, schemes=(scheme,), **dims)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_campaign(cfg), p1)
        emit_csv(run_campaign(replace(cfg, threads=2)), p2)
        assert p1.read_bytes() == p2.read_bytes()
