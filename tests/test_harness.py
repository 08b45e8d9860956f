import csv
import math
import os
import pickle
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsce import (
    ResultRow,
    ScenarioConfig,
    draw_channels,
    emit_csv,
    resolve_phase_plan,
    run_campaign,
    run_scheme,
    psi_phase2,
    scheme_key,
    simulate_received,
    substream,
)
from irsce import harness
from irsce.config import SCHEMES
from irsce.errors import DegenerateChannelError
from irsce.estimate import phase3_conditional_mse, phase3_lmmse_all_slots
from irsce.harness import (
    CSV_COLUMNS,
    SCHEME_TABLE,
    OrthogonalLmmse,
    _run_block,
    _scenario,
    build_context,
    stream_keys,
)


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

    def test_keyed_substream_equals_hashed_substream(self):
        path = (1, scheme_key("proposed-lmmse"), 0, 5, harness.TAG_NOISE)
        keyed = substream(*path, key=stream_keys([path])[0])
        assert np.array_equal(keyed.standard_normal(64), substream(*path).standard_normal(64))

    @pytest.mark.parametrize("scheme", ["proposed-noiseless", "proposed-lmmse", "phase2-random"])
    def test_block_draws_no_seed_sequence(self, scheme, monkeypatch):
        ctx = build_context(small_config(schemes=(scheme,)), scheme)
        expected = _run_block(ctx, list(range(6)))
        made = []

        class CountingSeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        assert np.array_equal(_run_block(ctx, list(range(6))), expected)
        assert made == []

    def test_campaign_imports_no_numpy_ma(self):
        # in a fresh interpreter: pytest's own imports would load numpy.ma;
        # trial workers are forked directly, so no executor module is loaded
        code = ("import sys\n"
                "from irsce import ScenarioConfig, run_campaign\n"
                "run_campaign(ScenarioConfig(K=3, N=4, M=4, trials=8, threads=2, prior_draws=1000).validate())\n"
                "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
                "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures was imported'\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                                timeout=300)
        assert result.returncode == 0, result.stderr


class TestResolvePhasePlan:
    def test_defaults_per_scheme(self):
        assert tuple(SCHEME_TABLE) == SCHEMES
        cfg = small_config()  # K=3, N=4, M=4 -> M >= N
        assert resolve_phase_plan(cfg, "proposed-noiseless").tau3 == 2
        assert resolve_phase_plan(cfg, "proposed-lmmse").tau3 == 2
        assert resolve_phase_plan(cfg, "benchmark").tau3 == 2 * 4
        narrow = small_config(M=1)
        assert resolve_phase_plan(narrow, "proposed-noiseless").tau3 == 8
        assert resolve_phase_plan(narrow, "proposed-lmmse").tau3 == 8

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


class TestCampaign:
    def test_noiseless_scheme_recovers_everything(self):
        cfg = small_config(schemes=("proposed-noiseless",), trials=4, M=2, N=5)
        row = run_campaign(cfg)[0]
        assert row.e_total < 1e-18
        assert row.e3 < 1e-18

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

    def test_pool_no_larger_than_trial_count(self, monkeypatch):
        # at most one chunk per trial: the caller runs the first chunk and
        # forks one child for each of the other four
        caller, own, forked = os.getpid(), [], []
        fork_chunk, trial_chunk = harness._fork_chunk, harness._trial_chunk

        def recording_fork(ctx, trials):
            forked.append(trials)
            return fork_chunk(ctx, trials)

        def recording_chunk(ctx, trials):
            if os.getpid() == caller:
                own.append(trials)
            return trial_chunk(ctx, trials)

        monkeypatch.setattr(harness, "_fork_chunk", recording_fork)
        monkeypatch.setattr(harness, "_trial_chunk", recording_chunk)
        cfg = small_config(trials=5)
        row = run_scheme(replace(cfg, threads=16), "proposed-lmmse")
        assert own == [[0]] and forked == [[1], [2], [3], [4]]
        assert row == replace(run_scheme(cfg, "proposed-lmmse"), wall_clock=row.wall_clock)

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

    def test_no_child_outlives_a_failed_caller_chunk(self, monkeypatch):
        caller = os.getpid()

        def chunk(ctx, trials):
            if os.getpid() == caller:
                raise ValueError("the caller's chunk failed")
            time.sleep(60)

        monkeypatch.setattr(harness, "_trial_chunk", chunk)
        started = time.monotonic()
        with pytest.raises(ValueError, match="the caller's chunk failed"):
            run_scheme(small_config(trials=6, threads=3), "proposed-lmmse")
        assert time.monotonic() - started < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestPriorMemo:
    def test_one_draw_per_repetition(self, monkeypatch):
        calls = []
        draw = harness.estimate_lambda_priors

        def counting(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(harness, "estimate_lambda_priors", counting)
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
        draw = harness.estimate_lambda_priors

        def counting(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(harness, "estimate_lambda_priors", counting)
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
        singles = sc._replace(layout=_scenario(replace(cfg, M=1), "proposed-lmmse", 0).layout)
        OrthogonalLmmse.moments(sc)
        _, priors = OrthogonalLmmse.moments(singles)
        assert priors and all(len(elements) == 1 for _, elements in priors)


class TestPerfectPhase3Columns:
    def test_phase3_solved_once_per_size_class(self, monkeypatch):
        # with phase3_g1 = perfect the estimate is solved from the true
        # columns, as with estimated columns it is from g1_hat, and e3_pred
        # inverts the same precision; M < N gives two subset sizes, hence two
        # classes: per trial one solve and one inverse per class
        cfg = small_config(N=5, M=2, phase3_g1="perfect")
        ctx = build_context(cfg, "proposed-lmmse")
        strat, p = ctx.phase3, ctx.budget.p
        assert sorted(c.elements.shape[1] for c in strat.classes) == [1, 2]

        chan = draw_channels(ctx.dims, ctx.corr, ctx.loss, 31)
        ybar3 = simulate_received(chan, strat.sched, ctx.budget, rng=32)
        lam_hat, _, e3_pred = strat.estimate(ybar3, chan, 2.0 * chan.g1, p)
        assert np.array_equal(lam_hat, phase3_lmmse_all_slots(ybar3, strat.plan, chan.g1, p, strat.classes))
        assert e3_pred == phase3_conditional_mse(chan.g1, p, strat.classes)

        inverted, solved = [], []
        inv, solve = np.linalg.inv, np.linalg.solve
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.shape) or inv(a))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a.shape) or solve(a, b))
        for t in range(3):
            _run_block(ctx, [t])
        assert len(inverted) == 3 * len(strat.classes)
        assert len(solved) == 3 * len(strat.classes)


class TestEstimatedPhase3Columns:
    def test_one_inverse_per_class_and_no_noise_solve(self, monkeypatch):
        # Psi_2^-1 and Psi_3^-1 are formed with the context: a trial solves
        # the estimate's posterior precision and inverts only e3_pred's, once
        # per class, plus a random Phase-II pattern's posterior precision
        cfg = small_config(N=5, M=2)
        cases = (("proposed-lmmse", 0), ("phase2-random", 1))
        contexts = {scheme: build_context(cfg, scheme) for scheme, _ in cases}
        ctx = contexts["proposed-lmmse"]
        plan, budget = ctx.plan, ctx.budget
        psi2 = psi_phase2(plan.tau2, ctx.dims.M, budget.p, budget.sigma2, float(ctx.noise.beta_bu[0]), plan.tau1)
        psi3, _ = OrthogonalLmmse.moments(_scenario(cfg, "proposed-lmmse", 0))

        inverted, solved = [], []
        inv, solve = np.linalg.inv, np.linalg.solve
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.append(a) or solve(a, b))
        for scheme, phase2_inverses in cases:
            ctx = contexts[scheme]
            classes = len(ctx.phase3.classes)
            assert classes == 2
            inverted.clear()
            solved.clear()
            for t in range(3):
                _run_block(ctx, [t])
            assert len(inverted) == 3 * (classes + phase2_inverses), scheme
            assert len(solved) == 3 * classes, scheme
            for a in inverted + solved:
                for m in a.reshape(-1, *a.shape[-2:]):
                    assert not any(np.array_equal(m, psi) for psi in (psi2, *psi3.values())), scheme


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
