"""Trial blocks against a one-trial-at-a-time oracle.

`oracle_trial` is the per-trial loop the harness ran before trials were
blocked, and it runs on that version's per-trial kernels, copied below as
`ref_*`: the channel draw as 2K+1 `complex_normal` calls, the synthesis of
each phase's received block with its own noise draw, the orthogonality-
checked Phase-I and Phase-II inversions, the Phase-I MMSE, direct-signal
cancellation, the Phase-II weights, the noiseless Phase III's per-slot SVD
solves and the Phase-III LMMSE per trial. From the package it takes only
the factors a context builds once (slot classes, the baseline's weights and
the Phase-II moments), the Phase-III solves and the Phase-II apply, which
trial blocks left as they were. Every field of every `TrialOutcome` a block
produces must equal the oracle's bit for bit (NaN equal to NaN), for any
block size and any position of the trial in its block, and the CSV must not
depend on the worker count.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from irsce import ScenarioConfig, draw_channels, emit_csv, run_campaign, substream
from irsce import estimate, harness
from irsce.config import SCHEMES
from irsce.errors import DegenerateChannelError, NumericalConditioningError, PreconditionError
from irsce.estimate import Phase2Weights, _check_orthogonal, _phase3_posterior, _phase3_solve, phase2_apply
from irsce.harness import (
    NAN,
    TAG_CHANNEL,
    TAG_NOISE,
    TAG_SCHEDULE,
    MinimumLength,
    OrthogonalLmmse,
    RandomPhase2,
    TrialOutcome,
    _block_size,
    _run_block,
    _run_trial,
    _trial_chunk,
    build_context,
)
from irsce.model import (
    ChannelRealization,
    _as_generator,
    _channel_normals,
    _channels_from_normals,
    coloring_root,
    complex_normal,
    path_loss,
)
from irsce.schedule import Schedule, SingleUserSlot, phase2_reflections_random

# The per-trial kernels of the loop before trial blocks.


def ref_draw_channels(dims, corr, loss, rng_seed, r_var_n_factor=True) -> ChannelRealization:
    K, N, M = dims.K, dims.N, dims.M
    rng = _as_generator(rng_seed)
    beta_bu, beta_iu, beta_bi = path_loss(loss)

    h = np.empty((K, M), dtype=complex)
    for k in range(K):
        h[k] = coloring_root(corr.bs_direct[k], M) @ complex_normal(rng, (M,), beta_bu[k])

    r_var = beta_bi * (N if r_var_n_factor else 1)
    R = coloring_root(corr.bs_reflect, M) @ complex_normal(rng, (M, N), r_var) @ coloring_root(corr.irs_reflect, N)

    t = np.empty((K, N), dtype=complex)
    for k in range(K):
        t[k] = coloring_root(corr.irs_user[k], N) @ complex_normal(rng, (N,), beta_iu[k])

    g = t[:, :, None] * R.T[None, :, :]
    lam = t[1:] / t[0] if K > 1 else np.zeros((0, N), dtype=complex)
    return ChannelRealization(h=h, R=R, t=t, g=g, lam=lam)


def ref_simulate_received(chan, sched, budget, noise_on, rng) -> np.ndarray:
    A, phi = sched.pilots, sched.reflections
    y = np.sqrt(budget.p) * (chan.h.T @ A + chan.R @ (phi * (chan.t.T @ A)))
    if noise_on:
        y = y + complex_normal(rng, y.shape, budget.sigma2)
    return y


def ref_phase1_recover_noiseless(y, pilots, p):
    tau1 = pilots.shape[1]
    _check_orthogonal(pilots, tau1, "phase-1 pilot")
    return (y @ pilots.conj().T / (tau1 * np.sqrt(p))).T


def ref_phase1_mmse(y, pilots, p, sigma2, beta):
    tau1 = pilots.shape[1]
    _check_orthogonal(pilots, tau1, "phase-1 pilot")
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    M = y.shape[0]
    denom = beta * p * tau1 + sigma2
    h_hat = ((y @ pilots.conj().T) * (beta * np.sqrt(p) / denom)).T
    mse = M * beta * sigma2 / denom
    return h_hat, mse


def ref_cancel_direct(y, h_hat, pilots, p):
    return y - np.sqrt(p) * h_hat.T @ pilots


def ref_phase2_recover_noiseless(ybar, refl, p):
    tau2 = refl.shape[1]
    _check_orthogonal(refl, tau2, "phase-2 reflection")
    return ybar @ refl.conj().T / (tau2 * np.sqrt(p))


def ref_phase2_weights(refl, p, psi, cbi_inv) -> Phase2Weights:
    try:
        psi_inv_phiH = np.linalg.solve(psi, refl.conj().T)
        cov = np.linalg.inv(p * refl @ psi_inv_phiH + cbi_inv)
    except np.linalg.LinAlgError as exc:
        raise NumericalConditioningError(f"phase-2 LMMSE solve failed: {exc}") from exc
    return Phase2Weights(psi_inv_phiH, cov, float(np.trace(cov).real))


def ref_reflected_from_scaling(lam, g1):
    return lam[:, :, None] * g1.T[None]


def ref_svd_solve(A, b):
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        raise DegenerateChannelError("all-zero system matrix")
    rank = int(np.sum(s > estimate._SVD_RCOND * s[0]))
    if rank < A.shape[1]:
        raise DegenerateChannelError(
            f"selected channel columns have numerical rank {rank} < {A.shape[1]}")
    return Vh.conj().T @ ((U.conj().T @ b) / s)


def ref_phase3_recover_noiseless(ybar, dims, plan, g1, p):
    K, N = dims.K, dims.N
    lam = np.zeros((max(K - 1, 0), N), dtype=complex)
    if K == 1:
        return lam
    sp = np.sqrt(p)

    if plan.degenerate:
        base = K - 1
        for i in range(ybar.shape[1]):
            k = 2 + (i % base)
            lam[k - 2] = ref_svd_solve(g1, ybar[:, i] / sp)
        return lam

    base_slots = list(plan.stage1) + list(plan.stage2)
    base = len(base_slots)
    for i in range(ybar.shape[1]):
        slot = base_slots[i % base]
        if isinstance(slot, SingleUserSlot):
            cols = [n - 1 for n in slot.elements]
            sol = ref_svd_solve(g1[:, cols], ybar[:, i] / sp)
            lam[slot.user - 2, cols] = sol
        else:
            on = [n for _, n in slot.targets]
            y_tilde = ybar[:, i] / sp
            for k in slot.users:
                for n in on:
                    if (k, n) not in slot.targets:
                        y_tilde = y_tilde - lam[k - 2, n - 1] * g1[:, n - 1]
            sol = ref_svd_solve(g1[:, [n - 1 for n in on]], y_tilde)
            for (k, n), v in zip(slot.targets, sol):
                lam[k - 2, n - 1] = v
    return lam


def ref_columns(c, g1):
    return np.ascontiguousarray(g1[:, c.elements].transpose(1, 0, 2))


def ref_sum_in_plan_order(classes, A_invs) -> float:
    traces = np.empty(sum(len(c.order) for c in classes))
    for c, A_inv in zip(classes, A_invs):
        traces[c.order] = np.trace(A_inv, axis1=1, axis2=2).real
    total = 0.0
    for t in traces:
        total += float(t)
    return total


def ref_phase3_lmmse_all_slots(ybar, plan, g1, p, classes, mse=True):
    n_users = max(plan.users) - 1 if plan.users else 0
    lam = np.zeros((n_users, g1.shape[1]), dtype=complex)
    A_invs = []
    for c in classes:
        y_sum = ybar[:, c.cols].sum(axis=-1).T
        lam_hat, A_inv = _phase3_solve(y_sum, ref_columns(c, g1), c.reps, p, c.psi_inv, c.clam_inv, mse)
        lam[c.rows[:, None], c.elements] = lam_hat
        A_invs.append(A_inv)
    return lam, ref_sum_in_plan_order(classes, A_invs) if mse else None


def ref_phase3_conditional_mse(g1, p, classes) -> float:
    A_invs = [_phase3_posterior(ref_columns(c, g1), c.reps, p, c.psi_inv, c.clam_inv) for c in classes]
    return ref_sum_in_plan_order(classes, A_invs)


def ref_phase3(strat, ybar3, chan, g1_hat, p):
    """A Phase-III strategy's (lam_hat, reflected estimates, e3_pred)."""
    if isinstance(strat, MinimumLength):
        lam_hat = ref_phase3_recover_noiseless(ybar3, strat.plan.dims, strat.plan, g1_hat, p)
        return lam_hat, ref_reflected_from_scaling(lam_hat, g1_hat), 0.0
    if isinstance(strat, OrthogonalLmmse):
        if strat.g1_perfect:
            lam_hat, e3_pred = ref_phase3_lmmse_all_slots(ybar3, strat.plan, chan.g1, p, strat.classes)
        else:
            lam_hat, _ = ref_phase3_lmmse_all_slots(ybar3, strat.plan, g1_hat, p, strat.classes, mse=False)
            e3_pred = ref_phase3_conditional_mse(chan.g1, p, strat.classes)
        return lam_hat, ref_reflected_from_scaling(lam_hat, g1_hat), e3_pred
    tau_b = strat.tau_b  # the per-user baseline
    g_hat = np.empty(chan.g[1:].shape, dtype=complex)
    for i, w in enumerate(strat.weights):
        g_hat[i] = phase2_apply(ybar3[:, i * tau_b:(i + 1) * tau_b], w, p).T
    return NAN, g_hat, NAN


def _sq(a: np.ndarray) -> float:
    return float(np.sum(np.abs(a) ** 2))


def oracle_trial(ctx, t: int) -> TrialOutcome:
    dims, budget, noise = ctx.dims, ctx.budget, ctx.noise
    K, N, M = dims.K, dims.N, dims.M
    p = budget.p
    path = (ctx.master_seed, ctx.skey, ctx.rep, t)

    chan = ref_draw_channels(
        dims, ctx.corr, ctx.loss, substream(*path, TAG_CHANNEL),
        r_var_n_factor=ctx.r_var_n_factor,
    )
    noise_rng = substream(*path, TAG_NOISE)

    # Phase I: direct channels, IRS off.
    pilots1 = ctx.sched1.pilots
    y1 = ref_simulate_received(chan, ctx.sched1, budget, noise.noise_on, noise_rng)
    if noise.noise_on:
        h_hat = ref_phase1_mmse(y1, pilots1, p, budget.sigma2, noise.beta_bu)[0]
    else:
        h_hat = ref_phase1_recover_noiseless(y1, pilots1, p)

    # Phase II: user-1 reflected channels.
    if isinstance(ctx.phase2, RandomPhase2):
        refl2 = phase2_reflections_random(N, ctx.plan.tau2, substream(*path, TAG_SCHEDULE))
        pilots2 = np.zeros((K, ctx.plan.tau2), dtype=complex)
        pilots2[0] = 1.0
        sched2 = Schedule(pilots2, refl2)
    else:
        sched2 = ctx.phase2.sched
    y2 = ref_simulate_received(chan, sched2, budget, noise.noise_on, noise_rng)
    ybar2 = ref_cancel_direct(y2, h_hat, sched2.pilots, p)
    if noise.noise_on:
        w2 = ref_phase2_weights(sched2.reflections, noise.p, noise.psi2, noise.cbi1_inv)
        g1_hat, e2_pred = phase2_apply(ybar2, w2, p), w2.mse
    else:
        g1_hat, e2_pred = ref_phase2_recover_noiseless(ybar2, sched2.reflections, p), 0.0

    # Phase III: remaining users; lam_hat is NaN when the scheme estimates no
    # scaling factors, which makes e3 NaN.
    e3_num = e3_den = e3_pred = e3g_num = e3g_den = NAN
    g_hat = np.empty((K, N, M), dtype=complex)
    g_hat[0] = g1_hat.T
    if K > 1:
        sched3 = ctx.phase3.sched
        y3 = ref_simulate_received(chan, sched3, budget, noise.noise_on, noise_rng)
        ybar3 = ref_cancel_direct(y3, h_hat, sched3.pilots, p)
        lam_hat, g_rest, e3_pred = ref_phase3(ctx.phase3, ybar3, chan, g1_hat, p)
        g_hat[1:] = g_rest
        e3_num, e3_den = _sq(lam_hat - chan.lam), _sq(chan.lam)
        e3g_num, e3g_den = _sq(g_hat[1:] - chan.g[1:]), _sq(chan.g[1:])

    e1_num, e1_den = _sq(h_hat - chan.h), _sq(chan.h)
    return TrialOutcome(
        e1_num=e1_num,
        e1_den=e1_den,
        e2_num=_sq(g1_hat - chan.g1),
        e2_den=_sq(chan.g1),
        e2_pred=float(e2_pred),
        e3_num=e3_num,
        e3_den=e3_den,
        e3_pred=float(e3_pred),
        e3g_num=e3g_num,
        e3g_den=e3g_den,
        tot_num=e1_num + _sq(g_hat - chan.g),
        tot_den=e1_den + _sq(chan.g),
    )


def assert_bit_equal(got: list[TrialOutcome], want: list[TrialOutcome]) -> None:
    assert len(got) == len(want)
    for t, (a, b) in enumerate(zip(got, want)):
        for f in fields(TrialOutcome):
            x, y = getattr(a, f.name), getattr(b, f.name)
            same = (math.isnan(x) and math.isnan(y)) or x == y
            assert same, f"trial {t} field {f.name}: block {x!r} != oracle {y!r}"


def config(**overrides) -> ScenarioConfig:
    base = dict(trials=4, seed=5, prior_draws=1000)
    base.update(overrides)
    return replace(ScenarioConfig(), **base).validate()


@st.composite
def scenarios(draw):
    K = draw(st.integers(1, 5))
    N = draw(st.integers(1, 8))
    M = draw(st.integers(1, 8))
    cfg = config(
        K=K, N=N, M=M,
        seed=draw(st.integers(0, 2**32 - 1)),
        extra_slots=draw(st.integers(0, 4)),
        extra_policy=draw(st.sampled_from(("phaseI", "phaseII", "even"))),
        phase3_g1=draw(st.sampled_from(("estimated", "perfect"))),
    )
    scheme = draw(st.sampled_from(SCHEMES))
    plan = harness.resolve_phase_plan(cfg, scheme)
    if K > 1 and draw(st.booleans()):
        # Phase III beyond its minimum: repeated slots
        cfg = replace(cfg, tau3=plan.tau3 + draw(st.integers(1, 2 * (K - 1)))).validate()
    return cfg, scheme


# Around a block's edges: a lone trial, one short of a block, a full block,
# one over, and two blocks plus a remainder.
COUNTS = (lambda B: 1, lambda B: B - 1, lambda B: B, lambda B: B + 1, lambda B: 2 * B + 3)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.sampled_from((1, 2, 3, 5)), st.sampled_from(COUNTS))
def test_blocks_equal_oracle(scenario, block, count):
    cfg, scheme = scenario
    ctx = build_context(cfg, scheme)
    trials = list(range(max(count(block), 1)))
    got = [o for i in range(0, len(trials), block) for o in _run_block(ctx, trials[i:i + block])]
    assert_bit_equal(got, [oracle_trial(ctx, t) for t in trials])


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.sampled_from(COUNTS))
def test_chunk_blocks_equal_oracle(scenario, count):
    # the harness's own block size; small dimensions give the 64-trial cap
    cfg, scheme = scenario
    ctx = build_context(cfg, scheme)
    trials = list(range(max(count(_block_size(ctx)), 1)))
    assert_bit_equal(_trial_chunk(ctx, trials), [oracle_trial(ctx, t) for t in trials])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_default_dims_blocks_equal_oracle(scheme):
    # the default dimensions, where BLAS takes its larger-matrix kernels:
    # two full blocks and a lone trial
    ctx = build_context(config(K=8, N=32, M=32), scheme)
    trials = list(range(2 * _block_size(ctx) + 1))
    assert_bit_equal(_trial_chunk(ctx, trials), [oracle_trial(ctx, t) for t in trials])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 8), st.integers(1, 8), st.sampled_from((0.0, 0.5, 0.95)),
       st.integers(0, 2**32 - 1), st.booleans())
def test_draw_channels_equals_per_user_draws(K, N, M, corr, seed, r_var_n_factor):
    # one standard_normal call, sliced, against 2K+1 complex_normal calls
    cfg = config(K=K, N=N, M=M, corr_bs_direct=corr, corr_irs_user=corr, corr_bs_reflect=corr)
    ctx = build_context(cfg, "proposed-noiseless")
    got = draw_channels(ctx.dims, ctx.corr, ctx.loss, seed, r_var_n_factor=r_var_n_factor)
    want = ref_draw_channels(ctx.dims, ctx.corr, ctx.loss, seed, r_var_n_factor)
    for f in ("h", "R", "t", "g", "lam"):
        assert np.array_equal(getattr(got, f), getattr(want, f)), f


@settings(max_examples=12, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.integers(4, 9))
def test_csv_independent_of_threads(tmp_path_factory, scenario, trials):
    cfg, scheme = scenario
    cfg = replace(cfg, trials=trials, schemes=(scheme,))
    out = tmp_path_factory.mktemp("csv")
    data = []
    for threads in (1, 2, 3):
        emit_csv(run_campaign(replace(cfg, threads=threads)), out / f"{threads}.csv")
        data.append((out / f"{threads}.csv").read_bytes())
    assert data[0] == data[1] == data[2]


@pytest.mark.parametrize("dims,scheme,B", [
    (dict(K=8, N=32, M=32), "proposed-noiseless", 4),
    (dict(K=4, N=16, M=4), "proposed-noiseless", 64),
    (dict(K=4, N=16, M=4), "phase2-random", 64),   # (N, max(N, tau2)) per trial
    (dict(K=2, N=128, M=64), "proposed-noiseless", 2),
    (dict(K=4, N=256, M=64), "proposed-noiseless", 1),
])
def test_block_size_rule(dims, scheme, B):
    # the largest per-trial array stays within 512 KiB, at most 64 trials
    assert _block_size(build_context(config(**dims), scheme)) == B


@pytest.mark.parametrize("K,N,M", [(1, 5, 3), (3, 4, 6), (4, 16, 4), (8, 32, 32)])
def test_block_synthesis_equals_reflected_sum(K, N, M):
    # a block of channels and one random pattern per trial, against the sum
    # over every user and element of g_{k,n} phi_{n,i} a_{k,i}
    B, tau = 5, N + 2
    ctx = build_context(config(K=K, N=N, M=M), "proposed-noiseless")
    rng = np.random.default_rng(K * 1000 + N)
    z = rng.standard_normal((B, _channel_normals(ctx.dims)))
    chan = _channels_from_normals(ctx.dims, ctx.corr, ctx.loss, z)
    refl = np.stack([phase2_reflections_random(N, tau, rng) for _ in range(B)])
    pilots = rng.standard_normal((K, tau)) + 1j * rng.standard_normal((K, tau))
    p = ctx.budget.p
    got = estimate._received(chan, pilots, refl, p)
    for b in range(B):
        want = np.sqrt(p) * (chan.h[b].T @ pilots + np.einsum("knm,ni,ki->mi", chan.g[b], refl[b], pilots))
        np.testing.assert_allclose(got[b], want, rtol=1e-12, atol=0)


def test_rank_deficient_trial_raises_in_a_block(monkeypatch):
    # one trial of the block with a rank-one IRS-BS matrix, so a rank-one
    # user-1 channel matrix
    ctx = build_context(config(K=3, N=5, M=2), "proposed-noiseless")
    real = harness._channels_from_normals

    def degenerate(dims, corr, loss, z, r_var_n_factor):
        chan = real(dims, corr, loss, z, r_var_n_factor)
        chan.R[1] = chan.R[1, :, :1]  # every element's column equals the first
        chan.g[1] = (chan.t[1, :, None, :] * chan.R[1]).swapaxes(-1, -2)
        return chan

    monkeypatch.setattr(harness, "_channels_from_normals", degenerate)
    with pytest.raises(DegenerateChannelError):
        _run_block(ctx, [0, 1, 2])


@pytest.mark.parametrize("scheme,checks", [("proposed-noiseless", 2), ("proposed-lmmse", 1),
                                           ("phase2-random", 1)])
def test_fixed_matrices_checked_once_per_context(monkeypatch, scheme, checks):
    # the Phase-I pilots, and the noiseless scheme's Phase-II reflections,
    # are checked for orthogonality when the context is built, never per trial
    calls = []
    check = estimate._check_orthogonal

    def counting(rows, tau, what):
        calls.append(what)
        check(rows, tau, what)

    monkeypatch.setattr(estimate, "_check_orthogonal", counting)
    monkeypatch.setattr(harness, "_check_orthogonal", counting, raising=False)
    ctx = build_context(config(K=3, N=5, M=2), scheme)
    assert len(calls) == checks
    for t in range(3):
        _run_trial(ctx, t)
    _trial_chunk(ctx, list(range(10)))
    assert len(calls) == checks


def test_nonorthogonal_pilots_rejected_by_context(monkeypatch):
    monkeypatch.setattr(harness, "phase1_pilots", lambda K, tau1: np.ones((K, tau1), dtype=complex))
    with pytest.raises(PreconditionError, match="phase-1 pilot"):
        build_context(config(K=3, N=5, M=2), "proposed-lmmse")
