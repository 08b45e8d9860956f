"""Trial blocks against a one-trial-at-a-time oracle.

`oracle_trial` is a per-trial loop in the arithmetic the harness's blocks
use, and it runs on per-trial kernels written out below as `ref_*`: the
channel draw as 2K+1 `complex_normal` calls, the synthesis of each phase's
received block with its own noise draw, Phases II and III synthesized from
the direct residual H - H_hat with sqrt(p) on the channel factors, the
orthogonality-checked Phase-I and Phase-II inversions, the Phase-I MMSE, the
Phase-II weights with Psi_2^-1 built from the trial's Phase-I MSE, applied
through the inverse Cholesky factor of the posterior precision (folded into
one filter for a fixed pattern), the noiseless Phase III's per-slot
left-inverse solves with one refinement step on C-ordered columns, the
Phase-III LMMSE per trial with each slot group's Psi_3(reps) built from its
user's Phase-I residual, which every repeat of the slot shares, applied
through the same factor, the per-user baseline's folded filters applied one
user at a time, the squared errors summed from real and imaginary parts with
the reflected errors in `chan.g`'s (K, M, N) order, and the reflected powers
as sum_n |t_kn|^2 ||r_n||^2. From the package it takes only the factors a
context builds once (the slot classes' layout and prior inverses, the
baseline's filters and the Phase-II moments), the LMMSE weights kernel with
its triangular inverse, and the closed-form Psi_2^-1. Every field of every
`OUTCOME` record a block produces must equal the oracle's bit for bit (NaN
equal to NaN), for any block size and any position of the trial in its
block, and the CSV must not depend on the worker count.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from irsce import ScenarioConfig, draw_channels, emit_csv, run_campaign, substream
from irsce import estimate, harness, schemes
from irsce.config import SCHEMES
from irsce.errors import DegenerateChannelError, PreconditionError
from irsce.estimate import (
    LmmseWeights,
    Phase2NoiseInverse,
    _check_orthogonal,
    lmmse_weights,
)
from irsce.harness import (
    NAN,
    TAG_CHANNEL,
    TAG_NOISE,
    TAG_SCHEDULE,
    OUTCOME,
    _block_size,
    _run_block,
    _trial_chunk,
    _trial_paths,
    build_context,
    stream_keys,
)
from irsce.model import (
    ChannelRealization,
    _as_generator,
    _channel_normals,
    _channels_from_normals,
    coloring_root,
    complex_normal,
    exp_correlation_matrix,
    path_loss,
)
from irsce.schedule import Schedule, phase2_reflections_random
from irsce.schemes import MinimumLength, OrthogonalLmmse

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

    g = t[:, None, :] * R[None, :, :]
    lam = t[1:] / t[0] if K > 1 else np.zeros((0, N), dtype=complex)
    return ChannelRealization(h=h, R=R, t=t, g=g, lam=lam)


def ref_simulate_received(chan, sched, budget, noise_on, rng) -> np.ndarray:
    A, phi = sched.pilots, sched.reflections
    sp = np.sqrt(budget.p)
    y = (sp * chan.h).T @ A + chan.R @ (phi * ((sp * chan.t).T @ A))
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


def ref_phase2_recover_noiseless(ybar, refl, p):
    tau2 = refl.shape[1]
    _check_orthogonal(refl, tau2, "phase-2 reflection")
    return ybar @ refl.conj().T / (tau2 * np.sqrt(p))


def ref_phase2_weights(refl, p, psi_inv, cbi_inv) -> LmmseWeights:
    # the LMMSE of x from sqrt(p) H x + z with H = Phi^H, z ~ CN(0, Psi):
    # the inverse of the posterior precision's Cholesky factor L, and its
    # squared real and imaginary parts summed in C order, tr(cov)
    H = refl.conj().T
    psi_inv_H = psi_inv @ H
    chol_inv = estimate._lower_inverse(np.linalg.cholesky(p * H.conj().T @ psi_inv_H + cbi_inv))
    return LmmseWeights(psi_inv_H, chol_inv, _sq(chol_inv))


def ref_phase2_apply(ybar, w, p, fixed):
    # a fixed pattern's filter sqrt(p) Psi^-1 Phi^H cov, cov = L^-H L^-1, is
    # folded once; a random pattern's estimate takes x = Ybar Psi^-1 Phi^H,
    # u = L^-1 x^H, then sqrt(p) u^H L^-1
    if fixed:
        return ybar @ (np.sqrt(p) * w.psi_inv_H @ (w.chol_inv.conj().T @ w.chol_inv))
    u = w.chol_inv @ (ybar @ w.psi_inv_H).conj().T
    return np.sqrt(p) * (u.conj().T @ w.chol_inv)


def ref_reflected_from_scaling(lam, g1):
    return lam[:, None, :] * g1[None]


def ref_left_inverse_solve(A, b):
    A = np.ascontiguousarray(A)
    try:
        if A.shape[0] == A.shape[1]:
            L = np.linalg.inv(A)
        else:
            Q, R = np.linalg.qr(A)
            L = np.linalg.inv(R) @ Q.conj().T
    except np.linalg.LinAlgError as exc:
        raise DegenerateChannelError("singular system matrix") from exc
    if not np.linalg.norm(A) * np.linalg.norm(L) < 1.0 / estimate._RANK_RCOND:
        raise DegenerateChannelError("ill-conditioned system matrix")
    x = L @ b
    return x + L @ (b - A @ x)


def ref_phase3_recover_noiseless(ybar, dims, plan, g1, p):
    K, N = dims.K, dims.N
    lam = np.zeros((max(K - 1, 0), N), dtype=complex)
    if K == 1:
        return lam
    sp = np.sqrt(p)

    # only the base cycle is read; the columns past it repeat its equations
    if dims.M >= dims.N:  # one all-on slot per user
        for i in range(K - 1):
            lam[i] = ref_left_inverse_solve(g1, ybar[:, i] / sp)
        return lam

    for i, slot in enumerate(plan.slots):
        on = [n for _, n in slot.targets]
        y_tilde = ybar[:, i] / sp
        for k in slot.users:
            for n in on:
                if (k, n) not in slot.targets:
                    y_tilde = y_tilde - lam[k - 2, n - 1] * g1[:, n - 1]
        sol = ref_left_inverse_solve(g1[:, [n - 1 for n in on]], y_tilde)
        for (k, n), v in zip(slot.targets, sol):
            lam[k - 2, n - 1] = v
    return lam


def ref_columns(c, g1):
    return np.ascontiguousarray(g1[:, c.elements].transpose(1, 0, 2))


def ref_psi3(ctx, k, reps):
    """Psi_3(reps) of user k, in `psi_phase3`'s arithmetic: the Phase-I
    residual e_k is the same in all reps repeats of a slot, so the repeat sum
    of sqrt(p) e_k + z has covariance reps (reps p Cov(e_k) + sigma2 I)."""
    p, s2, tau1, M = ctx.budget.p, ctx.budget.sigma2, ctx.plan.tau1, ctx.dims.M
    beta = float(ctx.beta_bu[k - 1])
    d = beta * p * tau1 + s2
    cov_e = beta * s2 / d / d * (s2 * exp_correlation_matrix(ctx.corr.bs_direct[k - 1], M)
                                 + beta * p * tau1 * np.eye(M))
    return reps * p * cov_e + s2 * np.eye(M)


def ref_phase3_lmmse_all_slots(ctx, ybar, g1, classes):
    """(lam_hat, e3_pred) of one trial from the columns g1 the estimate uses."""
    plan, p = ctx.layout, ctx.budget.p
    lam = np.zeros((len(set(plan.users)), g1.shape[1]), dtype=complex)
    e3_pred = 0.0
    for c in classes:  # class by class, group by group
        psi_inv = np.stack([np.linalg.inv(ref_psi3(ctx, row + 2, c.reps)) for row in c.rows])
        w = lmmse_weights(ref_columns(c, g1), c.reps, p, psi_inv, c.clam_inv)
        y_sum = ybar[:, c.cols].sum(axis=-1).T
        b = w.psi_inv_H.conj().transpose(0, 2, 1) @ y_sum[:, :, None]
        # cov b = L^-H (L^-1 b), taken as the conjugate of the row (L^-1 b)^H L^-1
        u = w.chol_inv @ b
        lam[c.rows[:, None], c.elements] = np.sqrt(p) * (u.conj().transpose(0, 2, 1) @ w.chol_inv).conj()[:, 0]
        for t in w.mse:
            e3_pred += float(t)
    return lam, e3_pred


def ref_phase3(ctx, ybar3, chan, g1_hat):
    """A context's Phase-III (lam_hat, reflected estimates, e3_pred)."""
    strat, plan, p = ctx.phase3, ctx.layout, ctx.budget.p
    if isinstance(strat, MinimumLength):
        lam_hat = ref_phase3_recover_noiseless(ybar3, plan.dims, plan, g1_hat, p)
        return lam_hat, ref_reflected_from_scaling(lam_hat, g1_hat), 0.0
    if isinstance(strat, OrthogonalLmmse):
        g1 = chan.g1 if strat.g1_perfect else g1_hat
        lam_hat, e3_pred = ref_phase3_lmmse_all_slots(ctx, ybar3, g1, strat.classes)
        return lam_hat, ref_reflected_from_scaling(lam_hat, g1_hat), e3_pred
    tau_b = strat.filters.shape[1]  # the per-user baseline's (K-1, tau_b, N) filters
    g_hat = np.empty(chan.g[1:].shape, dtype=complex)
    for i, f in enumerate(strat.filters):
        g_hat[i] = ybar3[:, i * tau_b:(i + 1) * tau_b] @ f
    return NAN, g_hat, NAN


def _sq(a: np.ndarray) -> float:
    """Squares of the real and imaginary parts, summed in C order."""
    v = np.ascontiguousarray(a).view(np.float64).ravel()
    return float(np.sum(v * v))


def ref_g_power(chan) -> np.ndarray:
    """sum_n |t_kn|^2 ||r_n||^2 of each user k."""
    r_sq = np.sum(chan.R.real ** 2 + chan.R.imag ** 2, axis=0)
    return np.sum((chan.t.real ** 2 + chan.t.imag ** 2) * r_sq, axis=-1)


def oracle_trial(ctx, t: int) -> np.void:
    """One trial's OUTCOME record."""
    dims, budget, noise = ctx.dims, ctx.budget, ctx.noise
    K, N, M = dims.K, dims.N, dims.M
    p = budget.p
    path = (ctx.config.seed, ctx.skey, ctx.rep, t)

    chan = ref_draw_channels(
        dims, ctx.corr, ctx.loss, substream(*path, TAG_CHANNEL),
        r_var_n_factor=ctx.config.r_var_n_factor,
    )
    noise_rng = substream(*path, TAG_NOISE)

    # Phase I: direct channels, IRS off.
    pilots1 = ctx.sched1.pilots
    y1 = ref_simulate_received(chan, ctx.sched1, budget, noise.noise_on, noise_rng)
    if noise.noise_on:
        h_hat, mse1 = ref_phase1_mmse(y1, pilots1, p, budget.sigma2, ctx.beta_bu)
    else:
        h_hat = ref_phase1_recover_noiseless(y1, pilots1, p)

    # Phase II: user-1 reflected channels.
    if ctx.phase2.refl is None:
        refl2 = phase2_reflections_random(N, ctx.plan.tau2, substream(*path, TAG_SCHEDULE))
        pilots2 = np.zeros((K, ctx.plan.tau2), dtype=complex)
        pilots2[0] = 1.0
        sched2 = Schedule(pilots2, refl2)
    else:
        sched2 = Schedule(ctx.phase2.pilots, ctx.phase2.refl)
    # Phases II and III are synthesized from the direct residual.
    resid = replace(chan, h=chan.h - h_hat)
    ybar2 = ref_simulate_received(resid, sched2, budget, noise.noise_on, noise_rng)
    if noise.noise_on:
        # Psi_2 = p mse1_1 1 1^T + M sigma2 I, applied in closed form
        psi2_inv = Phase2NoiseInverse(p * mse1[0], M * budget.sigma2)
        w2 = ref_phase2_weights(sched2.reflections, p, psi2_inv, noise.cbi1_inv)
        g1_hat, e2_pred = ref_phase2_apply(ybar2, w2, p, ctx.phase2.refl is not None), w2.mse
    else:
        g1_hat, e2_pred = ref_phase2_recover_noiseless(ybar2, sched2.reflections, p), 0.0

    power = ref_g_power(chan)
    e1_num, e1_den = _sq(h_hat - chan.h), _sq(chan.h)
    e2_num, e2_den = _sq(g1_hat - chan.g1), float(power[0])

    # Phase III: remaining users; lam_hat is NaN when the scheme estimates no
    # scaling factors, which makes e3 NaN.
    e3_num = e3_den = e3_pred = e3g_num = e3g_den = NAN
    if K > 1:
        sched3 = ctx.sched3
        ybar3 = ref_simulate_received(resid, sched3, budget, noise.noise_on, noise_rng)
        lam_hat, g_rest, e3_pred = ref_phase3(ctx, ybar3, chan, g1_hat)
        e3_num, e3_den = _sq(lam_hat - chan.lam), _sq(chan.lam)
        e3g_num = _sq(g_rest - chan.g[1:])
        e3g_den = float(np.sum(power[1:]))

    outcome = dict(
        e1_num=e1_num,
        e1_den=e1_den,
        e2_num=e2_num,
        e2_den=e2_den,
        e2_pred=float(e2_pred),
        e3_num=e3_num,
        e3_den=e3_den,
        e3_pred=float(e3_pred),
        e3g_num=e3g_num,
        e3g_den=e3g_den,
    )
    return np.array(tuple(outcome[name] for name in OUTCOME.names), dtype=OUTCOME)[()]


def assert_bit_equal(got, want) -> None:
    assert len(got) == len(want)
    for t, (a, b) in enumerate(zip(got, want)):
        for name in OUTCOME.names:
            x, y = a[name], b[name]
            same = (math.isnan(x) and math.isnan(y)) or x == y
            assert same, f"trial {t} field {name}: block {x!r} != oracle {y!r}"


def run_blocks(ctx, trials: list[int], block: int) -> np.ndarray:
    """The trials' outcomes from blocks of `block` trials that share one
    chunk's keys and generator, as `_trial_chunk` runs its blocks."""
    paths, rng = _trial_paths(ctx, trials), np.random.Generator(np.random.Philox(key=0))
    keys = stream_keys(paths.reshape(-1, 5)).reshape(*paths.shape[:2], 2)
    return np.concatenate([_run_block(ctx, paths[i:i + block], keys[i:i + block], rng)
                           for i in range(0, len(trials), block)])


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
    plan = schemes.resolve_phase_plan(cfg, scheme)
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
    assert_bit_equal(run_blocks(ctx, trials, block), [oracle_trial(ctx, t) for t in trials])


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenarios(), st.sampled_from(COUNTS), st.sampled_from((0, 1, 7, 34, 2**31 - 100)))
def test_chunk_blocks_equal_oracle(scenario, count, start):
    # the harness's own block size; small dimensions give the 64-trial cap.
    # A chunk that starts past trial 0, as a forked worker's chunk does
    cfg, scheme = scenario
    ctx = build_context(cfg, scheme)
    trials = list(range(start, start + max(count(_block_size(ctx)), 1)))
    assert_bit_equal(_trial_chunk(ctx, trials), [oracle_trial(ctx, t) for t in trials])


@pytest.mark.parametrize("scheme,block,tau3", [
    *(pytest.param(s, None, None, id=s) for s in SCHEMES),
    *(pytest.param(s, 64, None, id=f"{s}-B64") for s in SCHEMES),
    *(pytest.param(s, None, 3 * 7, id=f"{s}-tau3-21") for s in SCHEMES),
])
def test_default_dims_blocks_equal_oracle(scheme, block, tau3):
    # the default dimensions, where BLAS takes its larger-matrix kernels.
    # None: the harness's blocks, two full ones and a lone trial. 64: one
    # block whose channel, synthesis and Phase-I/II arrays hold 256 KiB or
    # more, the size from which numpy computes `*` on a temporary in place.
    # tau3 = 21: each of the 7 base Phase-III slots sent 3 times
    ctx = build_context(config(K=8, N=32, M=32, tau3=tau3), scheme)
    if block is None:
        trials = list(range(2 * _block_size(ctx) + 1))
        got = _trial_chunk(ctx, trials)
    else:
        trials = list(range(block))
        got = run_blocks(ctx, trials, block)
    assert_bit_equal(got, [oracle_trial(ctx, t) for t in trials])


def test_large_random_pattern_block_equals_oracle():
    # K = 1, N = 32, M = 32, tau2 = 33: blocks of up to 30 trials, and a
    # 20-trial block's (20, N, tau2) Phase-II arrays exceed 256 KiB, the size
    # from which numpy computes `*` on a temporary in place
    ctx = build_context(config(K=1, N=32, M=32, tau2=33), "phase2-random")
    assert _block_size(ctx) == 30
    trials = list(range(20))
    assert_bit_equal(run_blocks(ctx, trials, 20), [oracle_trial(ctx, t) for t in trials])


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
# the default dimensions: per-trial arrays of 128 KiB in blocks of 4 trials,
# which 1, 2 and 3 workers split differently
@example((config(K=8, N=32, M=32), "proposed-noiseless"), 9)
@example((config(K=8, N=32, M=32), "proposed-lmmse"), 9)
@example((config(K=8, N=32, M=32), "benchmark"), 9)
@example((config(K=8, N=32, M=32), "phase2-onoff"), 9)
@example((config(K=8, N=32, M=32), "phase2-random"), 9)
# a realistic surface size, where a trial's arrays reach MiBs, one trial a
# block: 4 trials that 1, 2 and 3 workers split differently
@example((config(K=4, N=256, M=32), "proposed-noiseless"), 4)
@example((config(K=4, N=256, M=32), "proposed-lmmse"), 4)
@example((config(K=4, N=256, M=32), "benchmark"), 4)
@example((config(K=4, N=256, M=32), "phase2-onoff"), 4)
@example((config(K=4, N=256, M=32), "phase2-random"), 4)
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
        want = np.sqrt(p) * (chan.h[b].T @ pilots + np.einsum("kmn,ni,ki->mi", chan.g[b], refl[b], pilots))
        np.testing.assert_allclose(got[b], want, rtol=1e-12, atol=0)


def test_rank_deficient_trial_raises_in_a_block(monkeypatch):
    # one trial of the block with a rank-one IRS-BS matrix, so a rank-one
    # user-1 channel matrix
    ctx = build_context(config(K=3, N=5, M=2), "proposed-noiseless")
    real = harness._channels_from_normals

    def degenerate(dims, corr, loss, z, r_var_n_factor):
        chan = real(dims, corr, loss, z, r_var_n_factor)
        chan.R[1] = chan.R[1, :, :1]  # every element's column equals the first
        chan.g[1] = chan.t[1, :, None, :] * chan.R[1]
        return chan

    monkeypatch.setattr(harness, "_channels_from_normals", degenerate)
    with pytest.raises(DegenerateChannelError):
        run_blocks(ctx, [0, 1, 2], 3)


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
    monkeypatch.setattr(schemes, "_check_orthogonal", counting)
    ctx = build_context(config(K=3, N=5, M=2), scheme)
    assert len(calls) == checks
    for t in range(3):
        run_blocks(ctx, [t], 1)
    _trial_chunk(ctx, list(range(10)))
    assert len(calls) == checks


def test_nonorthogonal_pilots_rejected_by_context(monkeypatch):
    monkeypatch.setattr(harness, "phase1_pilots", lambda K, tau1: np.ones((K, tau1), dtype=complex))
    with pytest.raises(PreconditionError, match="phase-1 pilot"):
        build_context(config(K=3, N=5, M=2), "proposed-lmmse")


def test_nonorthogonal_fixed_pattern_rejected_by_context(monkeypatch):
    # the noiseless scheme inverts its fixed Phase-II pattern exactly, so a
    # pattern with repeated rows fails when its context is built
    spec = schemes.SCHEME_TABLE["proposed-noiseless"]
    repeated = spec._replace(phase2=lambda N, tau2: np.ones((N, tau2), dtype=complex))
    monkeypatch.setitem(schemes.SCHEME_TABLE, "proposed-noiseless", repeated)
    with pytest.raises(PreconditionError, match="phase-2 reflection"):
        build_context(config(K=3, N=5, M=2), "proposed-noiseless")
