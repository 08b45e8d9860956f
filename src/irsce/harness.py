"""Seeded Monte-Carlo campaigns across estimation schemes.

A campaign draws user placement once, caches the second-moment statistics the
LMMSE estimators need and every estimator factor that stays fixed across
trials, then runs `trials` independent channel/noise draws per scheme. Each
trial's randomness comes from a dedicated counter-based stream keyed by
(master seed, scheme, repetition, trial index, purpose), so results are
reproducible and independent of the worker count.

Trials run in blocks: every step of the protocol is one stacked call over
the block's trials, with each trial's matrices of the same shape as when run
alone. A trial's outcome is bit-for-bit the same in any block, so the CSV
does not depend on the block size or the worker count.

`SCHEME_TABLE` is the single definition of each scheme: its noise model, its
Phase-II reflection pattern and its Phase-III strategy.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import signal
import time
import traceback
import zlib
from dataclasses import dataclass
from math import fsum
from typing import Callable, NamedTuple

import numpy as np

from .config import ScenarioConfig
from .errors import InfeasibleScheduleError, InvalidGeometryError
from .estimate import (
    Phase2Weights,
    _check_orthogonal,
    _inverse,
    _received,
    cancel_direct,
    estimate_lambda_priors,
    phase1_mmse,
    phase1_mse,
    phase1_recover_noiseless,
    phase2_apply,
    phase2_recover_noiseless,
    phase2_weights,
    phase3_conditional_mse,
    phase3_lmmse_all_slots,
    phase3_recover_noiseless,
    phase3_slot_classes,
    prior_inverse,
    psi_phase2,
    psi_phase3,
    reflected_from_scaling,
    reflected_gram,
)
from .model import (
    CorrelationSpec,
    LinkBudget,
    PathLossSpec,
    SystemDims,
    _as_generator,
    _channel_normals,
    _channels_from_normals,
    _NormalSlices,
    exp_correlation_matrix,
    path_loss,
)
from .metrics import pooled_ratio, ratio_halfwidth
from .schedule import (
    OrthogonalPlan,
    Phase3Plan,
    PhasePlan,
    Schedule,
    benchmark_phase3_schedule,
    dft_block,
    phase1_pilots,
    phase2_pilots,
    phase2_reflections_dft,
    phase2_reflections_onoff,
    phase2_reflections_random,
    phase3_schedule_noiseless,
    phase3_schedule_orthogonal_noisy,
)

# Stream purpose tags; the derivation path of every random draw is
# (seed, scheme_key, rep, trial, tag), placement/statistics omit the trial.
TAG_PLACEMENT = 101
TAG_STATS = 102
TAG_CHANNEL = 1
TAG_NOISE = 2
TAG_SCHEDULE = 3

NAN = float("nan")


def scheme_key(name: str) -> int:
    """Stable 32-bit key of a scheme id (CRC-32 of its UTF-8 name)."""
    return zlib.crc32(name.encode("utf-8"))


_MASK32 = 0xFFFFFFFF


def substream(*path: int, key: np.ndarray | None = None) -> np.random.Generator:
    """Philox generator seeded by an integer derivation path. `key`, when
    given, is the path's row of `stream_keys`, which spares the hashing."""
    if key is None:
        return _as_generator(np.random.SeedSequence([int(x) & _MASK32 for x in path]))
    return np.random.Generator(np.random.Philox(_StreamKey(key)))


class _StreamKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose Philox key is already computed."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.key


# numpy's SeedSequence (numpy/random/bit_generator.pyx) for a 5-word path:
# each word is hashed into a 4-word pool, the pool words are mixed pairwise,
# the fifth word is mixed into each, and the pool is hashed out as 4 words.
# Every hash call's (xor, multiplier) pair depends only on its place in that
# sequence, never on the data, so the pairs are fixed here.
_POOL = 4


def _hash_constants(h: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    xor, mul = [], []
    for _ in range(calls):
        xor.append(h)
        h = h * mult & _MASK32
        mul.append(h)
    return np.array(xor, np.uint32)[:, None], np.array(mul, np.uint32)[:, None]


# 20 mixing hashes: 4 words in, 12 pairwise pool mixes, 4 for the fifth word
_MIX_XOR, _MIX_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 20)
_OUT_XOR, _OUT_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, _POOL)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHERS = [np.array([d for d in range(_POOL) if d != s], dtype=np.intp) for s in range(_POOL)]


def _hashmix(v: np.ndarray, calls: slice) -> np.ndarray:
    v = v ^ _MIX_XOR[calls]
    v *= _MIX_MULT[calls]
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_L
    y *= _MIX_R
    x -= y
    x ^= x >> 16
    return x


def stream_keys(paths) -> np.ndarray:
    """The Philox keys (P, 2) uint64 of P 5-word derivation paths (P, 5),
    each equal to `SeedSequence(path).generate_state(2, np.uint64)` with every
    word masked to 32 bits, as `substream` masks it. All paths are hashed at
    once, in uint32 arithmetic that wraps as numpy's does."""
    words = (np.asarray(paths) & _MASK32).astype(np.uint32).T       # (5, P)
    if words.ndim != 2 or len(words) != _POOL + 1:
        raise ValueError(f"stream_keys takes (P, {_POOL + 1}) paths, got shape {words.T.shape}")
    pool = _hashmix(words[:_POOL], slice(0, _POOL))
    for s, others in enumerate(_OTHERS):
        calls = slice(_POOL + 3 * s, _POOL + 3 * s + 3)
        pool[others] = _mix(pool[others], _hashmix(pool[s], calls))
    pool = _mix(pool, _hashmix(words[_POOL], slice(4 * _POOL, 5 * _POOL)))
    pool ^= _OUT_XOR
    pool *= _OUT_MULT
    pool ^= pool >> 16
    return pool.T.astype("<u4").view("<u8").astype(np.uint64)


def place_users(config: ScenarioConfig, seed) -> tuple[np.ndarray, np.ndarray]:
    """Draw user positions uniformly on the configured disc and return the
    per-user (BS distance, IRS distance) arrays.

    The BS sits at the origin and the IRS on the x-axis at the BS-IRS
    distance; the disc center is placed to match its configured distances
    from both.
    """
    d_bi = config.d_bs_irs_m
    d_cb = config.user_center_d_bs_m
    d_ci = config.user_center_d_irs_m
    cx = (d_bi**2 + d_cb**2 - d_ci**2) / (2.0 * d_bi)
    cy2 = d_cb**2 - cx**2
    if cy2 < -1e-9 * d_cb**2:
        raise InvalidGeometryError(
            "user-center distances are incompatible with the BS-IRS distance")
    center = np.array([cx, np.sqrt(max(cy2, 0.0))])
    bs = np.array([0.0, 0.0])
    irs = np.array([d_bi, 0.0])

    rng = _as_generator(seed)
    r = config.user_radius_m * np.sqrt(rng.uniform(0.0, 1.0, size=config.K))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=config.K)
    pos = center[None, :] + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    d_bs_user = np.linalg.norm(pos - bs[None, :], axis=1)
    d_irs_user = np.linalg.norm(pos - irs[None, :], axis=1)
    return d_bs_user, d_irs_user


# --------------------------------------------------------------------------
# Scheme table. Estimator calls inside the classes below look their functions
# up in this module's namespace at call time, so wrappers installed on the
# module (such as perfbench's tracer) see them; every class is module-level so
# that a TrialContext holding their instances pickles, as the benchmark's
# traced runs do to measure its size.
# --------------------------------------------------------------------------


class _Scenario(NamedTuple):
    """A scheme's dimensions, schedules and link model for one repetition:
    everything short of its second-moment statistics."""

    config: ScenarioConfig
    dims: SystemDims
    plan: PhasePlan
    sched1: Schedule
    phase2: Phase2                 # without a fixed pattern's weights
    sched3: Schedule
    layout: object                 # the Phase-III strategy's slot layout
    budget: LinkBudget
    corr: CorrelationSpec
    loss: PathLossSpec
    beta_bu: np.ndarray
    stats_seed: list

    def reflected_gram(self, user: int) -> np.ndarray:
        return reflected_gram(self.dims, self.corr, self.loss, user, self.config.r_var_n_factor)


class ExactInversion:
    """Noiseless model: exact Phase-I/II inversions, zero predicted MSEs.
    Its estimators take a leading trial axis, as do the Lmmse model's."""

    noise_on = False
    e1_pred = 0.0
    e2_pred_den = 1.0

    def __init__(self, sc: _Scenario):
        pass

    def phase1(self, y1, pilots1, budget: LinkBudget) -> np.ndarray:
        return phase1_recover_noiseless(y1, pilots1, budget.p)

    def weights(self, refl2: np.ndarray) -> np.ndarray:
        """Exact inversion needs only the reflection pattern itself, and needs
        it orthogonal; a fixed pattern is checked here, once per context."""
        _check_orthogonal(refl2, refl2.shape[1], "phase-2 reflection")
        return refl2

    def phase2(self, ybar2, refl2, budget: LinkBudget) -> tuple[np.ndarray, float]:
        return phase2_recover_noiseless(ybar2, refl2, budget.p), 0.0


class Lmmse:
    """Noisy model: scalar MMSE direct channels, LMMSE user-1 reflected channels."""

    noise_on = True

    def __init__(self, sc: _Scenario):
        M, p, s2, beta, tau1 = sc.dims.M, sc.budget.p, sc.budget.sigma2, sc.beta_bu, sc.plan.tau1
        self.e1_pred = float(np.sum(phase1_mse(M, tau1, p, s2, beta)) / np.sum(M * beta))
        self.beta_bu, self.p = beta, p
        self.psi2_inv = _inverse(psi_phase2(sc.plan.tau2, M, p, s2, float(beta[0]), tau1),
                                 "Phase-II noise covariance")
        cbi1 = sc.reflected_gram(1)
        self.cbi1_inv = prior_inverse(cbi1)
        self.e2_pred_den = float(np.trace(cbi1).real)

    def phase1(self, y1, pilots1, budget: LinkBudget) -> np.ndarray:
        return phase1_mmse(y1, pilots1, budget.p, budget.sigma2, self.beta_bu)

    def weights(self, refl2: np.ndarray) -> Phase2Weights:
        """The Phase-II LMMSE weights of a reflection pattern, or of a stack."""
        return phase2_weights(refl2, self.p, self.psi2_inv, self.cbi1_inv)

    def phase2(self, ybar2, w: Phase2Weights, budget: LinkBudget) -> tuple[np.ndarray, np.ndarray]:
        return phase2_apply(ybar2, w, budget.p), w.mse


class Phase2(NamedTuple):
    """Phase II: user 1's all-ones pilots (K, tau2) against one reflection
    pattern, either fixed (N, tau2) or, where `refl` is None, uniform random
    phases redrawn for every trial. A fixed pattern's estimator weights are
    formed once per context; they are None until the context is built."""

    pilots: np.ndarray
    refl: np.ndarray | None
    weights: object
    N: int

    def draw(self, path: tuple[int, ...], key: np.ndarray | None = None) -> np.ndarray:
        """The reflections of the trial whose (seed, scheme_key, rep, trial) is
        `path`; `key` is its pattern stream's key, if already derived."""
        if self.refl is not None:
            return self.refl
        rng = substream(*path, TAG_SCHEDULE, key=key)
        return phase2_reflections_random(self.N, self.pilots.shape[1], rng)

    def stack(self, draws: list, noise: ExactInversion | Lmmse) -> tuple[np.ndarray, object]:
        """A block's reflections and estimator weights: the fixed ones, or the
        stacked (B, N, tau2) draws and their stacked weights."""
        if self.refl is not None:
            return self.refl, self.weights
        refl = np.stack(draws)
        return refl, noise.weights(refl)


class MinimumLength:
    """Noiseless Phase III: the minimum-length on/off plan, inverted exactly."""

    e3_pred_den = 1.0

    @staticmethod
    def schedule(dims: SystemDims, tau2: int, tau3: int | None = None) -> tuple[Schedule, Phase3Plan]:
        return phase3_schedule_noiseless(dims, tau3)

    def __init__(self, sc: _Scenario):
        self.sched, self.plan = sc.sched3, sc.layout

    def estimate(self, ybar3, chan, g1_hat, p: float):
        lam_hat = phase3_recover_noiseless(ybar3, self.plan.dims, self.plan, g1_hat, p)
        return lam_hat, reflected_from_scaling(lam_hat, g1_hat), 0.0


class OrthogonalLmmse:
    """Noisy Phase III: one user and at most M elements per slot, with a
    per-slot LMMSE estimate of the scaling factors."""

    @staticmethod
    def schedule(dims: SystemDims, tau2: int, tau3: int | None = None) -> tuple[Schedule, OrthogonalPlan]:
        return phase3_schedule_orthogonal_noisy(dims, tau3)

    # The last priors drawn, keyed by exactly the inputs of
    # `estimate_lambda_priors`. The schemes of one repetition that share a
    # Phase-III plan share one draw, and so do configs that differ only in
    # what the priors do not depend on, such as tau2 or the transmit power.
    _prior_memo: tuple | None = None

    @staticmethod
    def moments(sc: _Scenario) -> tuple[dict, dict]:
        """Each user's Phase-III noise covariance and each slot group's
        sampled scaling-factor prior (read-only arrays, memoized for the
        latest prior inputs); the strategy keeps only the stacks and the
        prior trace built from them."""
        psi3 = {
            k: psi_phase3(sc.budget.p, sc.budget.sigma2, float(sc.beta_bu[k - 1]), sc.plan.tau1,
                          exp_correlation_matrix(sc.corr.bs_direct[k - 1], sc.dims.M))
            for k in range(2, sc.dims.K + 1)
        }
        plan = sc.layout
        slots = tuple(dict.fromkeys(zip(plan.users, plan.elements)))
        if not slots:  # K = 1 has no Phase-III slots
            return psi3, {}
        cfg = sc.config
        _, beta_iu, _ = path_loss(sc.loss)
        key = (sc.dims.K, sc.dims.N, beta_iu.tobytes(), sc.corr.irs_user.tobytes(), slots,
               cfg.prior_draws, cfg.prior_cap_scale, tuple(sc.stats_seed))
        memo = OrthogonalLmmse._prior_memo
        if memo is None or memo[0] != key:
            priors = estimate_lambda_priors(
                sc.dims, sc.corr, sc.loss, slots, trials=cfg.prior_draws,
                cap_scale=cfg.prior_cap_scale, seed=np.random.SeedSequence([*sc.stats_seed, 2]),
            )
            for C in priors.values():
                C.flags.writeable = False
            memo = OrthogonalLmmse._prior_memo = (key, priors)
        return psi3, dict(memo[1])

    def __init__(self, sc: _Scenario):
        self.sched, self.plan = sc.sched3, sc.layout
        self.g1_perfect = sc.config.phase3_g1 == "perfect"
        psi3, priors = self.moments(sc)
        self.classes = phase3_slot_classes(self.plan, psi3, priors)
        self.e3_pred_den = fsum(float(np.trace(c).real) for c in priors.values())

    def estimate(self, ybar3, chan, g1_hat, p: float):
        g1 = chan.g1 if self.g1_perfect else g1_hat
        lam_hat = phase3_lmmse_all_slots(ybar3, self.plan, g1, p, self.classes)
        e3_pred = phase3_conditional_mse(chan.g1, p, self.classes)
        return lam_hat, reflected_from_scaling(lam_hat, g1_hat), e3_pred


class PerUserBaseline:
    """Per-user baseline Phase III (K + K*N pilots at the minimum): user k >= 2
    sends a Phase-II-style block of tau3 // (K-1) slots and its reflected
    channels are estimated directly, without scaling factors."""

    e3_pred_den = 1.0

    @staticmethod
    def schedule(dims: SystemDims, tau2: int, tau3: int | None = None) -> tuple[Schedule, int]:
        if dims.K == 1:
            return benchmark_phase3_schedule(dims, 0), 0
        tau_b = tau2 if tau3 is None else tau3 // (dims.K - 1)
        if tau_b < 1:
            raise InfeasibleScheduleError(f"benchmark needs tau3 >= K-1 = {dims.K - 1}, got {tau3}")
        return benchmark_phase3_schedule(dims, tau_b), tau_b

    def __init__(self, sc: _Scenario):
        users, self.tau_b = range(2, sc.dims.K + 1), sc.layout
        M, p, s2, tau1 = sc.dims.M, sc.budget.p, sc.budget.sigma2, sc.plan.tau1
        self.sched = sc.sched3
        block = dft_block(sc.dims.N, self.tau_b)
        self.weights = [
            phase2_weights(block, p,
                           _inverse(psi_phase2(self.tau_b, M, p, s2, float(sc.beta_bu[k - 1]), tau1),
                                    "Phase-II noise covariance"),
                           prior_inverse(sc.reflected_gram(k)))
            for k in users]

    def estimate(self, ybar3, chan, g1_hat, p: float):
        tau_b = self.tau_b
        g_hat = np.empty(chan.g[..., 1:, :, :].shape, dtype=complex)
        for i, w in enumerate(self.weights):
            g_hat[..., i, :, :] = phase2_apply(ybar3[..., :, i * tau_b:(i + 1) * tau_b], w, p).swapaxes(-1, -2)
        return NAN, g_hat, NAN


class Scheme(NamedTuple):
    """The three independent choices behind a scheme id."""

    noise: type                              # ExactInversion or Lmmse
    phase2: Callable | None                  # (N, tau2) -> fixed pattern; None: random per trial
    phase3: type                             # MinimumLength, OrthogonalLmmse or PerUserBaseline


SCHEME_TABLE = {
    "proposed-noiseless": Scheme(ExactInversion, phase2_reflections_dft, MinimumLength),
    "proposed-lmmse": Scheme(Lmmse, phase2_reflections_dft, OrthogonalLmmse),
    "benchmark": Scheme(Lmmse, phase2_reflections_dft, PerUserBaseline),
    "phase2-onoff": Scheme(Lmmse, phase2_reflections_onoff, OrthogonalLmmse),
    "phase2-random": Scheme(Lmmse, None, OrthogonalLmmse),
}


def _phase_plan(config: ScenarioConfig, scheme: str, dims: SystemDims) -> tuple[PhasePlan, Schedule, object]:
    """A scheme's slot counts, with its Phase-III schedule and slot layout:
    configured values, else the scheme's minimum (for Phase III, the length
    of its default schedule), then the extra-slot policy on top. tau3 is the
    length of the schedule built: 0 for a single user, who has no Phase III,
    and whole per-user blocks for the benchmark."""
    phase3 = SCHEME_TABLE[scheme].phase3
    tau1 = config.tau1 if config.tau1 is not None else dims.K
    tau2 = config.tau2 if config.tau2 is not None else dims.N
    tau3 = config.tau3 if config.tau3 is not None else phase3.schedule(dims, tau2)[0].tau
    plan = PhasePlan(tau1, tau2, tau3).with_extra(config.extra_slots, config.extra_policy)
    sched3, layout = phase3.schedule(dims, plan.tau2, plan.tau3 if dims.K > 1 else 0)
    return PhasePlan(plan.tau1, plan.tau2, sched3.tau), sched3, layout


def resolve_phase_plan(config: ScenarioConfig, scheme: str) -> PhasePlan:
    """The slot counts a scheme runs with (see `_phase_plan`)."""
    return _phase_plan(config, scheme, SystemDims(config.K, config.N, config.M))[0]


def _scenario(config: ScenarioConfig, scheme: str, rep: int) -> _Scenario:
    spec = SCHEME_TABLE[scheme]
    dims = SystemDims(config.K, config.N, config.M)
    budget = LinkBudget.from_dbm(config.power_dbm, config.bandwidth_hz, config.noise_psd_dbm_hz)
    corr = CorrelationSpec(
        np.full(dims.K, config.corr_bs_direct, dtype=complex),
        config.corr_bs_reflect,
        config.corr_irs_reflect,
        np.full(dims.K, config.corr_irs_user, dtype=complex),
    )
    d_bu, d_iu = place_users(config, substream(config.seed, rep, TAG_PLACEMENT))
    loss = PathLossSpec(
        config.beta0_db, config.d0_m, d_bu, d_iu, config.d_bs_irs_m,
        config.alpha_direct, config.alpha_irs_user, config.alpha_bs_irs,
    )
    beta_bu, _, _ = path_loss(loss)

    plan, sched3, layout = _phase_plan(config, scheme, dims)
    sched1 = Schedule(phase1_pilots(dims.K, plan.tau1), np.zeros((dims.N, plan.tau1)))
    refl2 = spec.phase2(dims.N, plan.tau2) if spec.phase2 else None
    phase2 = Phase2(phase2_pilots(dims.K, plan.tau2), refl2, None, dims.N)
    return _Scenario(config, dims, plan, sched1, phase2, sched3, layout, budget, corr, loss,
                     beta_bu, [config.seed, rep, TAG_STATS])


def phase_schedules(config: ScenarioConfig, scheme: str) -> tuple[PhasePlan, Schedule, Schedule, Schedule]:
    """Resolved slot counts and the Phase I, II and III schedules a scheme
    transmits in trial 0 of repetition 0, without computing any statistics."""
    sc = _scenario(config, scheme, 0)
    refl2 = sc.phase2.draw((config.seed, scheme_key(scheme), 0, 0))
    return sc.plan, sc.sched1, Schedule(sc.phase2.pilots, refl2), sc.sched3


@dataclass(frozen=True)
class ResultRow:
    """Aggregated campaign output for one (scheme, configuration, repetition)."""

    scheme: str
    K: int
    N: int
    M: int
    tau1: int
    tau2: int
    tau3: int
    rep: int
    seed: int
    trials: int
    e1: float
    e1_pred: float
    e2: float
    e2_pred: float
    e2_ci: float
    e3: float          # scaling-factor domain; NaN for the benchmark scheme
    e3_pred: float
    e3_ci: float
    e3_g: float        # reflected-channel domain over users 2..K
    e_total: float
    e_total_ci: float
    wall_clock: float


CSV_COLUMNS = (
    "scheme", "K", "N", "M", "tau1", "tau2", "tau3", "rep", "seed", "trials",
    "e1", "e1_pred", "e2", "e2_pred", "e2_ci",
    "e3", "e3_pred", "e3_ci", "e3_g", "e_total", "e_total_ci",
)


def emit_csv(rows, path, include_timing: bool = False) -> None:
    """Write result rows with a stable column order and 12-significant-digit
    decimals. Timing is opt-in so default output is byte-identical across
    reruns and worker counts."""
    cols = CSV_COLUMNS + (("wallclock_s",) if include_timing else ())
    with open(path, "w", newline="") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            cells = []
            for col in cols:
                v = row.wall_clock if col == "wallclock_s" else getattr(row, col)
                cells.append(str(v) if isinstance(v, (int, str)) else f"{v:.12g}")
            f.write(",".join(cells) + "\n")


@dataclass(frozen=True)
class TrialContext:
    """Everything a trial needs, built once per scheme and repetition and
    inherited by the forked trial workers (immutable, picklable)."""

    scheme: str
    dims: SystemDims
    plan: PhasePlan
    budget: LinkBudget
    corr: CorrelationSpec
    loss: PathLossSpec
    r_var_n_factor: bool
    sched1: Schedule
    phase2: Phase2
    noise: ExactInversion | Lmmse
    phase3: MinimumLength | OrthogonalLmmse | PerUserBaseline
    master_seed: int
    skey: int
    rep: int


# A trial's outcome: each phase's squared-error sum and squared norm, and
# its per-trial predictions. A block's outcomes are one (B,) record array.
OUTCOME = np.dtype([(name, np.float64) for name in (
    "e1_num", "e1_den", "e2_num", "e2_den", "e2_pred",
    "e3_num", "e3_den", "e3_pred", "e3g_num", "e3g_den", "tot_num", "tot_den",
)])


def _sq(a: np.ndarray) -> np.ndarray:
    """Squared norm of each trial's entries of a block a (B, ...), summed in
    the trial's C order as one contiguous row."""
    sq = np.abs(np.ascontiguousarray(a).reshape(len(a), -1))
    return np.sum(np.square(sq, out=sq), axis=-1)


_BLOCK_BYTES = 1 << 19
_BLOCK_MAX = 64


def _block_size(ctx: TrialContext) -> int:
    """Trials per block: as many as keep the block's largest per-trial array
    within 512 KiB, at most 64. The candidates are the reflected channels
    (K, N, M), the noise of all three phases (2, M, tau1 + tau2 + tau3) and,
    for a random Phase-II pattern, its weights: the (N, N) posterior
    covariance and the (tau2, N) Psi^-1 Phi^H. A block's transient memory is
    several times its largest array, and a trial worker's peak memory grows
    with it."""
    (K, N, M), plan = (ctx.dims.K, ctx.dims.N, ctx.dims.M), ctx.plan
    largest = max(K * N * M, M * plan.total)
    if ctx.phase2.refl is None:
        largest = max(largest, N * max(N, plan.tau2))
    return max(1, min(_BLOCK_MAX, _BLOCK_BYTES // (16 * largest)))


def _run_block(ctx: TrialContext, trials: list[int]) -> np.ndarray:
    """Run trials as one block: each step is one stacked call with a leading
    trial axis, and every trial's outcome is bit-for-bit that of a block
    holding it alone."""
    dims, budget, noise = ctx.dims, ctx.budget, ctx.noise
    K, N, M = dims.K, dims.N, dims.M
    p = budget.p

    # Each trial's streams, created one trial after another from keys
    # derived for the whole block at once; each stream draws all its normals
    # in one call, in the order the phases use them.
    wanted = ((TAG_CHANNEL, True), (TAG_NOISE, noise.noise_on), (TAG_SCHEDULE, ctx.phase2.refl is None))
    tags = [tag for tag, on in wanted if on]
    paths = np.empty((len(trials), len(tags), 5), dtype=np.int64)
    paths[...] = (ctx.master_seed, ctx.skey, ctx.rep, 0, 0)
    paths[..., 3] = np.asarray(trials)[:, None]
    paths[..., 4] = tags
    keys = stream_keys(paths.reshape(-1, 5)).reshape(len(trials), len(tags), 2)
    by_tag = dict(zip(tags, keys.swapaxes(0, 1)))                  # tag -> (B, 2)
    fixed_pattern = [None] * len(trials)
    chan_z, noise_z, draws2 = [], [], []
    for i, t in enumerate(trials):
        path = (ctx.master_seed, ctx.skey, ctx.rep, t)
        chan_rng = substream(*path, TAG_CHANNEL, key=by_tag[TAG_CHANNEL][i])
        chan_z.append(chan_rng.standard_normal(_channel_normals(dims)))
        if noise.noise_on:
            noise_rng = substream(*path, TAG_NOISE, key=by_tag[TAG_NOISE][i])
            noise_z.append(noise_rng.standard_normal(2 * M * ctx.plan.total))
        draws2.append(ctx.phase2.draw(path, by_tag.get(TAG_SCHEDULE, fixed_pattern)[i]))
    chan = _channels_from_normals(dims, ctx.corr, ctx.loss, np.stack(chan_z), ctx.r_var_n_factor)
    awgn = _NormalSlices(np.stack(noise_z)) if noise.noise_on else None

    def received(pilots, refl):
        y = _received(chan, pilots, refl, p)
        return y if awgn is None else y + awgn.take(y.shape[1:], budget.sigma2)

    # Phase I: direct channels, IRS off.
    sched1 = ctx.sched1
    h_hat = noise.phase1(received(sched1.pilots, sched1.reflections), sched1.pilots, budget)

    # Phase II: user-1 reflected channels.
    pilots2 = ctx.phase2.pilots
    refl2, w2 = ctx.phase2.stack(draws2, noise)
    ybar2 = cancel_direct(received(pilots2, refl2), h_hat, pilots2, p)
    g1_hat, e2_pred = noise.phase2(ybar2, w2, budget)

    # Phase III: remaining users; lam_hat is NaN when the scheme estimates no
    # scaling factors, which makes e3 NaN.
    e3_num = e3_den = e3_pred = e3g_num = e3g_den = NAN
    g_err = (g1_hat.swapaxes(-1, -2) - chan.g[:, 0])[:, None]   # reflected-channel errors
    if K > 1:
        sched3 = ctx.phase3.sched
        ybar3 = cancel_direct(received(sched3.pilots, sched3.reflections), h_hat, sched3.pilots, p)
        lam_hat, g_rest, e3_pred = ctx.phase3.estimate(ybar3, chan, g1_hat, p)
        g_err = np.concatenate((g_err, g_rest - chan.g[:, 1:]), axis=1)
        e3_num, e3_den = _sq(lam_hat - chan.lam), _sq(chan.lam)
        # chan.g is stored element-fastest; its norms sum in that order
        e3g_num, e3g_den = _sq(g_err[:, 1:]), _sq(chan.g[:, 1:].swapaxes(-1, -2))

    e1_num, e1_den = _sq(h_hat - chan.h), _sq(chan.h)
    columns = (
        e1_num, e1_den, _sq(g1_hat - chan.g1), _sq(chan.g1), e2_pred,
        e3_num, e3_den, e3_pred, e3g_num, e3g_den,
        e1_num + _sq(g_err), e1_den + _sq(chan.g.swapaxes(-1, -2)),
    )
    outcomes = np.empty(len(trials), dtype=OUTCOME)
    for name, c in zip(OUTCOME.names, columns):
        outcomes[name] = c
    return outcomes


def _trial_chunk(ctx: TrialContext, trials: list[int]) -> np.ndarray:
    size = _block_size(ctx)
    return np.concatenate([_run_block(ctx, trials[i:i + size]) for i in range(0, len(trials), size)])


def build_context(config: ScenarioConfig, scheme: str, rep: int = 0) -> TrialContext:
    """Resolve schedules and cache the scenario statistics for one scheme."""
    spec = SCHEME_TABLE[scheme]
    sc = _scenario(config, scheme, rep)
    # the fixed Phase-I pilots are checked here once, not in every trial
    _check_orthogonal(sc.sched1.pilots, sc.plan.tau1, "phase-1 pilot")
    noise = spec.noise(sc)
    phase2 = sc.phase2
    if phase2.refl is not None:
        phase2 = phase2._replace(weights=noise.weights(phase2.refl))
    return TrialContext(
        scheme=scheme, dims=sc.dims, plan=sc.plan, budget=sc.budget, corr=sc.corr, loss=sc.loss,
        r_var_n_factor=config.r_var_n_factor, sched1=sc.sched1, phase2=phase2,
        noise=noise, phase3=spec.phase3(sc),
        master_seed=config.seed, skey=scheme_key(scheme), rep=rep,
    )


def _aggregate(ctx: TrialContext, outcomes: np.ndarray, wall: float) -> ResultRow:
    """Pool a scheme's trial outcomes (an OUTCOME record array) into its row.
    A pooled prediction is the mean per-trial prediction over the normalizer
    its noise model (`e2_pred_den`) or Phase-III strategy (`e3_pred_den`)
    carries: the prior power of what it estimates, or 1.0 where the
    prediction is 0 or NaN."""
    dims, plan, o = ctx.dims, ctx.plan, outcomes

    def pooled_pred(name, den):
        return fsum(o[name]) / len(o) / den

    e3 = e3_ci = e3_pred = e3_g = NAN
    if dims.K > 1:
        e3 = pooled_ratio(o["e3_num"], o["e3_den"])
        e3_ci = ratio_halfwidth(o["e3_num"], o["e3_den"])
        e3_pred = pooled_pred("e3_pred", ctx.phase3.e3_pred_den)
        e3_g = pooled_ratio(o["e3g_num"], o["e3g_den"])
    return ResultRow(
        scheme=ctx.scheme, K=dims.K, N=dims.N, M=dims.M,
        tau1=plan.tau1, tau2=plan.tau2, tau3=plan.tau3,
        rep=ctx.rep, seed=ctx.master_seed, trials=len(o),
        e1=pooled_ratio(o["e1_num"], o["e1_den"]), e1_pred=ctx.noise.e1_pred,
        e2=pooled_ratio(o["e2_num"], o["e2_den"]), e2_pred=pooled_pred("e2_pred", ctx.noise.e2_pred_den),
        e2_ci=ratio_halfwidth(o["e2_num"], o["e2_den"]),
        e3=e3, e3_pred=e3_pred, e3_ci=e3_ci, e3_g=e3_g,
        e_total=pooled_ratio(o["tot_num"], o["tot_den"]),
        e_total_ci=ratio_halfwidth(o["tot_num"], o["tot_den"]),
        wall_clock=wall,
    )


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


def _release_free_heap() -> None:
    """Return the C allocator's free heap pages to the OS, where it can (glibc).

    A forked trial worker starts with every page this process has mapped. How
    many freed pages the allocator still holds after a context build depends
    on its allocation history, so without this a worker's footprint jumps by
    about 10 MiB between runs that differ only in, say, a path length."""
    if _malloc_trim is not None:
        _malloc_trim(0)


def _fork_chunk(ctx: TrialContext, trials: list[int]):
    """Fork a child that runs `_trial_chunk(ctx, trials)` on the context it
    inherits and writes the pickled outcomes, or the exception the chunk
    raised with its traceback, to a pipe. Returns the child's pid and the
    pipe's read end."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child never returns into the caller's code: every path ends in
        # os._exit, which runs no atexit handler and flushes no inherited buffer
        status = 1
        try:
            os.close(r)
            try:
                payload = pickle.dumps((_trial_chunk(ctx, trials), None))
            except Exception as exc:
                payload = pickle.dumps((exc, traceback.format_exc()))
            with open(w, "wb") as f:
                f.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _run_chunks(ctx: TrialContext, chunks: list[list[int]]) -> np.ndarray:
    """Run chunks[0] in this process and each later chunk in a forked child,
    and concatenate the outcomes in chunk order. Each pipe is read to EOF and
    each child reaped. A child's exception is raised here with its type and
    message, and a child that exits without writing its result raises
    RuntimeError. If anything raises, every child not yet reaped is killed
    and reaped."""
    children = []  # (pid, pipe) not yet reaped, in chunk order
    try:
        for trials in chunks[1:]:
            children.append(_fork_chunk(ctx, trials))
        parts = [_trial_chunk(ctx, chunks[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if status != 0:
                raise RuntimeError(f"trial worker {pid} exited with status {status} without a result")
            result, tb = pickle.loads(payload)  # written by our own child
            if tb is not None:
                raise result from RuntimeError(f"in trial worker {pid}:\n{tb}")
            parts.append(result)
        return np.concatenate(parts)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_scheme(config: ScenarioConfig, scheme: str, rep: int = 0) -> ResultRow:
    """Run all trials for one scheme and aggregate them into a ResultRow.
    With `threads` > 1 the trials are split into at most one chunk per
    thread and per trial, run as `_run_chunks` says."""
    t0 = time.perf_counter()
    ctx = build_context(config, scheme, rep)
    trials = list(range(config.trials))
    workers = min(config.threads, config.trials)
    if workers <= 1 or config.trials < 4:
        outcomes = _trial_chunk(ctx, trials)
    else:
        chunks = np.array_split(np.asarray(trials), workers)
        _release_free_heap()
        outcomes = _run_chunks(ctx, [c.tolist() for c in chunks])
    return _aggregate(ctx, outcomes, time.perf_counter() - t0)


def run_campaign(config: ScenarioConfig) -> list[ResultRow]:
    """Run every configured scheme and repetition; rows come back in a fixed
    (repetition, scheme) order."""
    rows = []
    for rep in range(config.repetitions):
        for scheme in config.schemes:
            rows.append(run_scheme(config, scheme, rep))
    return rows
