"""Seeded Monte-Carlo campaigns across estimation schemes.

A campaign draws user placement once, caches the second-moment statistics the
LMMSE estimators need and every estimator factor that stays fixed across
trials, then runs `trials` independent channel/noise draws per scheme. Each
trial's randomness comes from a dedicated counter-based stream keyed by
(master seed, scheme, repetition, trial index, purpose), so results are
reproducible and independent of the worker count. A chunk of trials derives
the Philox keys of all its streams at once (`stream_keys`) and draws every
stream from one Philox generator, which `substream` re-keys to the stream's
key with a zero counter; Philox is counter-based, so the draws equal those
of a new generator seeded with the path's `SeedSequence`.

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
from dataclasses import dataclass, fields, replace
from math import fsum
from typing import Callable, NamedTuple

import numpy as np

from .config import ScenarioConfig
from .errors import InfeasibleScheduleError, InvalidGeometryError
from .estimate import (
    LmmseWeights,
    Phase2NoiseInverse,
    _check_orthogonal,
    _received,
    estimate_lambda_priors,
    lmmse_weights,
    phase1_mmse,
    phase1_mse,
    phase2_apply,
    phase3_lmmse_all_slots,
    phase3_recover_noiseless,
    phase3_slot_classes,
    prior_inverse,
    psi_phase3,
    recover_orthogonal,
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
    Phase3Plan,
    PhasePlan,
    Schedule,
    benchmark_phase3_schedule,
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


_ZERO4 = (0, 0, 0, 0)


def substream(*path: int, rng: np.random.Generator | None = None, key=None) -> np.random.Generator:
    """Philox generator at the start of the stream of an integer derivation
    path, seeded by the path's `SeedSequence`. Given a Philox generator `rng`
    and the path's `key` (its row of `stream_keys`, as two ints), `rng` is
    re-keyed to the stream instead, with counter 0, buffer empty and no
    32-bit half kept, and returned; the path is then not hashed. Philox is
    counter-based, so whatever `rng` drew before, its draws are then those
    of a new generator on the path."""
    if rng is None:
        return _as_generator(np.random.SeedSequence([int(x) & _MASK32 for x in path]))
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZERO4, "key": key},
        "buffer": _ZERO4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


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


@dataclass(frozen=True)
class _Scenario:
    """A scheme's dimensions, schedules and link model for one repetition:
    everything short of its second-moment statistics, as `phase_schedules`
    reads it."""

    config: ScenarioConfig
    scheme: str
    rep: int
    skey: int                      # scheme_key(scheme)
    dims: SystemDims
    plan: PhasePlan
    sched1: Schedule
    phase2: Phase2
    sched3: Schedule
    layout: object                 # the Phase-III strategy's slot layout
    budget: LinkBudget
    corr: CorrelationSpec
    loss: PathLossSpec
    beta_bu: np.ndarray

    def reflected_gram(self, user: int) -> np.ndarray:
        return reflected_gram(self.dims, self.corr, self.loss, user, self.config.r_var_n_factor)


@dataclass(frozen=True)
class TrialContext(_Scenario):
    """Everything a trial needs: the scenario with its noise model and
    Phase-III strategy, built once per scheme and repetition and inherited
    by the forked trial workers (immutable, picklable)."""

    noise: ExactInversion | Lmmse
    phase3: MinimumLength | OrthogonalLmmse | PerUserBaseline


class ExactInversion:
    """Noiseless model: zero predicted MSEs and one exact inversion,
    `recover_orthogonal`, of both the Phase-I pilots and the fixed Phase-II
    pattern. Its estimators take a leading trial axis, as do the Lmmse
    model's; both models read the pilots, power and path losses from the
    scenario `sc` their methods take."""

    noise_on = False
    e1_pred = 0.0
    e2_pred_den = 1.0

    def __init__(self, sc: _Scenario):
        # exact inversion needs a fixed pattern orthogonal; checked once per context
        if sc.phase2.refl is not None:
            _check_orthogonal(sc.phase2.refl, sc.plan.tau2, "phase-2 reflection")

    def phase1(self, y1, sc: _Scenario) -> np.ndarray:
        return recover_orthogonal(y1, sc.sched1.pilots, sc.budget.p).swapaxes(-1, -2)

    def phase2(self, ybar2, refl2, sc: _Scenario) -> tuple[np.ndarray, float]:
        return recover_orthogonal(ybar2, refl2, sc.budget.p), 0.0


class Lmmse:
    """Noisy model: scalar MMSE direct channels, LMMSE user-1 reflected
    channels. A fixed Phase-II pattern's weights are formed once, here, and
    folded into one filter, so that its trials apply one product."""

    noise_on = True

    def __init__(self, sc: _Scenario):
        M, p, s2, beta, tau1 = sc.dims.M, sc.budget.p, sc.budget.sigma2, sc.beta_bu, sc.plan.tau1
        self.e1_pred = float(np.sum(phase1_mse(M, tau1, p, s2, beta)) / np.sum(M * beta))
        self.psi2_inv = Phase2NoiseInverse.of(M, tau1, p, s2, float(beta[0]))
        cbi1 = sc.reflected_gram(1)
        self.cbi1_inv = prior_inverse(cbi1)
        self.e2_pred_den = float(np.trace(cbi1).real)
        self.fixed_weights = None if sc.phase2.refl is None else self.weights(sc.phase2.refl, sc)
        self.fixed_filter = None if self.fixed_weights is None else self.fixed_weights.filter(p)

    def phase1(self, y1, sc: _Scenario) -> np.ndarray:
        return phase1_mmse(y1, sc.sched1.pilots, sc.budget.p, sc.budget.sigma2, sc.beta_bu)

    def weights(self, refl2: np.ndarray, sc: _Scenario) -> LmmseWeights:
        """The Phase-II LMMSE weights of a reflection pattern, or of a stack."""
        return lmmse_weights(refl2.conj().swapaxes(-1, -2), 1, sc.budget.p, self.psi2_inv, self.cbi1_inv)

    def phase2(self, ybar2, refl2, sc: _Scenario) -> tuple[np.ndarray, np.ndarray]:
        if self.fixed_filter is not None:
            return ybar2 @ self.fixed_filter, self.fixed_weights.mse
        w = self.weights(refl2, sc)
        return phase2_apply(ybar2, w, sc.budget.p), w.mse


class Phase2(NamedTuple):
    """Phase II: user 1's all-ones pilots (K, tau2) against one reflection
    pattern, either fixed (N, tau2) or, where `refl` is None, uniform random
    phases redrawn for every trial."""

    pilots: np.ndarray
    refl: np.ndarray | None
    N: int

    def draw(self, rng: np.random.Generator | None) -> np.ndarray:
        """A trial's reflections: the fixed pattern, or random phases drawn
        from `rng`, the trial's pattern stream."""
        if self.refl is not None:
            return self.refl
        return phase2_reflections_random(self.N, self.pilots.shape[1], rng)


class MinimumLength:
    """Noiseless Phase III: the minimum-length on/off plan, inverted exactly."""

    e3_pred_den = 1.0

    @staticmethod
    def schedule(dims: SystemDims, tau2: int, tau3: int | None = None) -> tuple[Schedule, Phase3Plan]:
        return phase3_schedule_noiseless(dims, tau3)

    def __init__(self, sc: _Scenario):
        pass

    def estimate(self, ybar3, chan, g1_hat, sc: _Scenario):
        plan = sc.layout
        lam_hat = phase3_recover_noiseless(ybar3, plan, g1_hat, sc.budget.p)
        return lam_hat, reflected_from_scaling(lam_hat, g1_hat), 0.0


class OrthogonalLmmse:
    """Noisy Phase III: one user and at most M elements per slot, with a
    per-slot LMMSE estimate of the scaling factors."""

    @staticmethod
    def schedule(dims: SystemDims, tau2: int, tau3: int | None = None) -> tuple[Schedule, Phase3Plan]:
        return phase3_schedule_orthogonal_noisy(dims, tau3)

    # The last priors drawn, keyed by exactly the inputs of
    # `estimate_lambda_priors`. The schemes of one repetition that share a
    # Phase-III plan share one draw, and so do configs that differ only in
    # what the priors do not depend on, such as tau2 or the transmit power.
    _prior_memo: tuple | None = None

    @staticmethod
    def moments(sc: _Scenario) -> tuple[dict, dict]:
        """The Phase-III noise covariance of each (user, repeat count) of the
        base slots, and each base slot's sampled scaling-factor prior
        (read-only arrays, memoized for the latest prior inputs); the
        strategy keeps only the stacks and the prior trace built from them."""
        plan = sc.layout
        slots = tuple((k, delta) for (k,), delta in zip(plan.users, plan.elements))
        psi3 = {
            (k, r): psi_phase3(sc.budget.p, sc.budget.sigma2, float(sc.beta_bu[k - 1]), sc.plan.tau1,
                               exp_correlation_matrix(sc.corr.bs_direct[k - 1], sc.dims.M), r)
            for k, r in {(k, len(cols)) for (k, _), cols in zip(slots, plan.columns(sc.plan.tau3))}
        }
        if not slots:  # K = 1 has no Phase-III slots
            return psi3, {}
        cfg = sc.config
        _, beta_iu, _ = path_loss(sc.loss)
        key = (sc.dims.K, sc.dims.N, beta_iu.tobytes(), sc.corr.irs_user.tobytes(), slots,
               cfg.prior_draws, cfg.prior_cap_scale, cfg.seed, sc.rep)
        memo = OrthogonalLmmse._prior_memo
        if memo is None or memo[0] != key:
            priors = estimate_lambda_priors(
                sc.dims, sc.corr, sc.loss, slots, trials=cfg.prior_draws,
                cap_scale=cfg.prior_cap_scale, seed=np.random.SeedSequence([cfg.seed, sc.rep, TAG_STATS, 2]),
            )
            for C in priors.values():
                C.flags.writeable = False
            memo = OrthogonalLmmse._prior_memo = (key, priors)
        return psi3, dict(memo[1])

    def __init__(self, sc: _Scenario):
        self.g1_perfect = sc.config.phase3_g1 == "perfect"
        psi3, priors = self.moments(sc)
        self.classes = phase3_slot_classes(sc.layout, sc.plan.tau3, psi3, priors)
        self.e3_pred_den = fsum(float(np.trace(c).real) for c in priors.values())

    def estimate(self, ybar3, chan, g1_hat, sc: _Scenario):
        g1 = chan.g1 if self.g1_perfect else g1_hat
        lam_hat, e3_pred = phase3_lmmse_all_slots(ybar3, sc.layout, g1, sc.budget.p, self.classes)
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
        K, N, M = sc.dims.K, sc.dims.N, sc.dims.M
        p, s2, tau1, tau_b = sc.budget.p, sc.budget.sigma2, sc.plan.tau1, sc.layout
        psi_inv = Phase2NoiseInverse.of(M, tau1, p, s2, sc.beta_bu[1:, None, None])
        grams = [sc.reflected_gram(k) for k in range(2, K + 1)]
        # every user's block reflects the same DFT block (N, tau_b): take the first
        w = lmmse_weights(sc.sched3.reflections[:, :tau_b].conj().T, 1, p, psi_inv,
                          prior_inverse(np.reshape(grams, (K - 1, N, N))))
        # each user's Phase-II-style filter sqrt(p) Psi_k^-1 Phi^H cov_k, (K-1, tau_b, N)
        self.filters = w.filter(p)

    def estimate(self, ybar3, chan, g1_hat, sc: _Scenario):
        """One product of each user's (M, tau_b) block view with its filter;
        tau_b is the scenario's slot layout."""
        *lead, M, _ = ybar3.shape
        blocks = ybar3.reshape(*lead, M, len(self.filters), sc.layout).swapaxes(-3, -2)
        return NAN, blocks @ self.filters, NAN


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
    if refl2 is None and plan.tau2 < dims.N:  # a random pattern is drawn only in the trials
        raise InfeasibleScheduleError(f"tau2={plan.tau2} < N={dims.N}")
    phase2 = Phase2(phase2_pilots(dims.K, plan.tau2), refl2, dims.N)
    return _Scenario(config, scheme, rep, scheme_key(scheme), dims, plan, sched1, phase2, sched3,
                     layout, budget, corr, loss, beta_bu)


def phase_schedules(config: ScenarioConfig, scheme: str) -> tuple[PhasePlan, Schedule, Schedule, Schedule]:
    """Resolved slot counts and the Phase I, II and III schedules a scheme
    transmits in trial 0 of repetition 0, without computing any statistics."""
    sc = _scenario(config, scheme, 0)
    refl2 = sc.phase2.draw(substream(config.seed, sc.skey, 0, 0, TAG_SCHEDULE))
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


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow) if f.name != "wall_clock")


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


# A trial's outcome: each phase's squared-error sum and squared norm, and
# its per-trial predictions. A block's outcomes are one (B,) record array.
OUTCOME = np.dtype([(name, np.float64) for name in (
    "e1_num", "e1_den", "e2_num", "e2_den", "e2_pred",
    "e3_num", "e3_den", "e3_pred", "e3g_num", "e3g_den",
)])


def _sq(a: np.ndarray) -> np.ndarray:
    """Squared norm of each trial's entries of a block a (B, ...): the squares
    of their real and imaginary parts, summed in the trial's C order as one
    contiguous row."""
    v = np.ascontiguousarray(a).reshape(len(a), -1).view(np.float64)
    return np.sum(np.square(v), axis=-1)


_BLOCK_BYTES = 1 << 19
_BLOCK_MAX = 64


def _block_size(ctx: TrialContext) -> int:
    """Trials per block: as many as keep the block's largest per-trial array
    within 512 KiB, at most 64. The candidates are the reflected channels
    (K, M, N), the noise of all three phases (2, M, tau1 + tau2 + tau3) and,
    for a random Phase-II pattern, its weights: the (N, N) inverse Cholesky
    factor of the posterior precision and the (tau2, N) Psi^-1 Phi^H. A
    block's transient memory is several times its largest array, and a trial
    worker's peak memory grows with it."""
    (K, N, M), plan = (ctx.dims.K, ctx.dims.N, ctx.dims.M), ctx.plan
    largest = max(K * N * M, M * plan.total)
    if ctx.phase2.refl is None:
        largest = max(largest, N * max(N, plan.tau2))
    return max(1, min(_BLOCK_MAX, _BLOCK_BYTES // (16 * largest)))


def _trial_paths(ctx: TrialContext, trials: list[int]) -> np.ndarray:
    """The derivation paths (T, S, 5) of the trials' streams: per trial its
    channel stream, then its noise stream if the noise model is on, then its
    Phase-II pattern stream if the pattern is random."""
    wanted = ((TAG_CHANNEL, True), (TAG_NOISE, ctx.noise.noise_on), (TAG_SCHEDULE, ctx.phase2.refl is None))
    tags = [tag for tag, on in wanted if on]
    paths = np.empty((len(trials), len(tags), 5), dtype=np.int64)
    paths[...] = (ctx.config.seed, ctx.skey, ctx.rep, 0, 0)
    paths[..., 3] = np.asarray(trials)[:, None]
    paths[..., 4] = tags
    return paths


def _run_block(ctx: TrialContext, paths: np.ndarray, keys: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """Run the trials whose stream paths are `paths` (B, S, 5), rows of
    `_trial_paths`, as one block, drawing from `rng`, a Philox generator
    that `substream` re-keys to each stream's row of `keys` (B, S, 2) in
    turn. Each step is one stacked call with a leading trial axis, and
    every trial's outcome is bit-for-bit that of a block holding it alone."""
    dims, budget, noise = ctx.dims, ctx.budget, ctx.noise
    K, p = dims.K, budget.p

    # Each stream draws all its normals in one call, straight into its
    # trial's row, in the order the phases use them; a fixed Phase-II
    # pattern has no stream, and `draw` gets None.
    chan_z = np.empty((len(keys), _channel_normals(dims)))
    noise_z = np.empty((len(keys), 2 * dims.M * ctx.plan.total)) if noise.noise_on else None
    draws2 = []
    for i, (trial_paths, trial_keys) in enumerate(zip(paths.tolist(), keys.tolist())):
        streams = (substream(*path, rng=rng, key=key) for path, key in zip(trial_paths, trial_keys))
        next(streams).standard_normal(out=chan_z[i])
        if noise_z is not None:
            next(streams).standard_normal(out=noise_z[i])
        draws2.append(ctx.phase2.draw(next(streams, None)))
    chan = _channels_from_normals(dims, ctx.corr, ctx.loss, chan_z, ctx.config.r_var_n_factor)
    awgn = None if noise_z is None else _NormalSlices(noise_z)

    def received(factors, pilots, refl):
        y = _received(factors, pilots, refl, p)
        return y if awgn is None else np.add(y, awgn.take(y.shape[1:], budget.sigma2), out=y)

    # Phase I: direct channels, IRS off, so no reflected term is synthesized.
    h_hat = noise.phase1(received(chan, ctx.sched1.pilots, None), ctx)

    # Phases II and III are synthesized from the direct residual H - H_hat
    resid = replace(chan, h=chan.h - h_hat)

    # Phase II: user-1 reflected channels.
    refl2 = ctx.phase2.refl if ctx.phase2.refl is not None else np.stack(draws2)
    g1_hat, e2_pred = noise.phase2(received(resid, ctx.phase2.pilots, refl2), refl2, ctx)

    power = chan.g_power                                            # (B, K)
    o = np.full(len(keys), NAN, dtype=OUTCOME)
    o["e1_num"], o["e1_den"] = _sq(h_hat - chan.h), _sq(chan.h)
    o["e2_num"], o["e2_den"], o["e2_pred"] = _sq(g1_hat - chan.g1), power[:, 0], e2_pred

    # Phase III: remaining users; lam_hat is NaN when the scheme estimates no
    # scaling factors, which makes e3 NaN. A single user's fields stay NaN.
    if K > 1:
        ybar3 = received(resid, ctx.sched3.pilots, ctx.sched3.reflections)
        lam_hat, g_rest, o["e3_pred"] = ctx.phase3.estimate(ybar3, chan, g1_hat, ctx)
        o["e3_num"], o["e3_den"] = _sq(lam_hat - chan.lam), _sq(chan.lam)
        o["e3g_num"], o["e3g_den"] = _sq(g_rest - chan.g[:, 1:]), np.sum(power[:, 1:], axis=-1)
    return o


def _trial_chunk(ctx: TrialContext, trials: list[int]) -> np.ndarray:
    """Run trials in blocks of `_block_size`, with the keys of every stream of
    the chunk from one `stream_keys` call and one Philox generator re-keyed
    to each stream in turn."""
    size, paths = _block_size(ctx), _trial_paths(ctx, trials)
    keys = stream_keys(paths.reshape(-1, 5)).reshape(*paths.shape[:2], 2)
    rng = np.random.Generator(np.random.Philox(key=0))
    return np.concatenate([_run_block(ctx, paths[i:i + size], keys[i:i + size], rng)
                           for i in range(0, len(trials), size)])


def build_context(config: ScenarioConfig, scheme: str, rep: int = 0) -> TrialContext:
    """Resolve schedules and cache the scenario statistics for one scheme:
    its noise model and its Phase-III strategy."""
    spec = SCHEME_TABLE[scheme]
    sc = _scenario(config, scheme, rep)
    # the fixed Phase-I pilots are checked here once, not in every trial
    _check_orthogonal(sc.sched1.pilots, sc.plan.tau1, "phase-1 pilot")
    return TrialContext(**vars(sc), noise=spec.noise(sc), phase3=spec.phase3(sc))


def _aggregate(ctx: TrialContext, outcomes: np.ndarray, wall: float) -> ResultRow:
    """Pool a scheme's trial outcomes (an OUTCOME record array) into its row.
    A pooled prediction is the mean per-trial prediction over the normalizer
    its noise model (`e2_pred_den`) or Phase-III strategy (`e3_pred_den`)
    carries: the prior power of what it estimates, or 1.0 where the
    prediction is 0 or NaN."""
    dims, plan, o = ctx.dims, ctx.plan, outcomes

    def pooled_pred(name, den):
        return fsum(o[name]) / len(o) / den

    # each trial's totals: e1 + e2, then + e3g where there is a Phase III
    e3 = e3_ci = e3_pred = e3_g = NAN
    tot_num, tot_den = o["e1_num"] + o["e2_num"], o["e1_den"] + o["e2_den"]
    if dims.K > 1:
        e3 = pooled_ratio(o["e3_num"], o["e3_den"])
        e3_ci = ratio_halfwidth(o["e3_num"], o["e3_den"])
        e3_pred = pooled_pred("e3_pred", ctx.phase3.e3_pred_den)
        e3_g = pooled_ratio(o["e3g_num"], o["e3g_den"])
        tot_num, tot_den = tot_num + o["e3g_num"], tot_den + o["e3g_den"]
    return ResultRow(
        scheme=ctx.scheme, K=dims.K, N=dims.N, M=dims.M,
        tau1=plan.tau1, tau2=plan.tau2, tau3=plan.tau3,
        rep=ctx.rep, seed=ctx.config.seed, trials=len(o),
        e1=pooled_ratio(o["e1_num"], o["e1_den"]), e1_pred=ctx.noise.e1_pred,
        e2=pooled_ratio(o["e2_num"], o["e2_den"]), e2_pred=pooled_pred("e2_pred", ctx.noise.e2_pred_den),
        e2_ci=ratio_halfwidth(o["e2_num"], o["e2_den"]),
        e3=e3, e3_pred=e3_pred, e3_ci=e3_ci, e3_g=e3_g,
        e_total=pooled_ratio(tot_num, tot_den),
        e_total_ci=ratio_halfwidth(tot_num, tot_den),
        wall_clock=wall,
    )


try:
    _libc = ctypes.CDLL(None)
    _malloc_trim, _malloc, _free = _libc.malloc_trim, _libc.malloc, _libc.free
    _malloc.argtypes, _malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
    _free.argtypes, _free.restype = (ctypes.c_void_p,), None
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


def _raise_heap_thresholds() -> None:
    """Free one untouched, mapped 3 MiB block, which raises glibc's mmap and
    trim thresholds (128 KiB until raised) to its size and twice that: a trial
    block's temporaries then stay in the heap, not faulted in again per block.
    After a larger block, as a λ-prior draw frees, it moves neither threshold."""
    if _malloc_trim is not None:
        _free(_malloc(3 << 20))


def _release_free_heap() -> None:
    """Return the C allocator's free heap pages to the OS, where it can (glibc).

    A forked trial worker starts with every page this process has mapped. How
    many freed pages the allocator still holds after a context build depends
    on its allocation history, so without this a worker's footprint jumps by
    about 10 MiB between runs that differ only in, say, a path length."""
    if _malloc_trim is not None:
        _malloc_trim(0)


def _fork_worker(contexts: list[TrialContext], trials: list[int]):
    """Fork a child that runs `_trial_chunk(ctx, trials)` for every context it
    inherits, in context order, and writes the pickled list of their outcomes,
    or the exception a chunk raised with its traceback, to a pipe. Returns
    the child's pid and the pipe's read end."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        # the child never returns into the caller's code: every path ends in
        # os._exit, which runs no atexit handler and flushes no inherited buffer
        status = 1
        try:
            os.close(r)
            try:
                payload = pickle.dumps(([_trial_chunk(ctx, trials) for ctx in contexts], None))
            except Exception as exc:
                payload = pickle.dumps((exc, traceback.format_exc()))
            with open(w, "wb") as f:
                f.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _run_chunks(contexts: list[TrialContext], chunks: list[list[int]]) -> tuple[list[np.ndarray], list[float]]:
    """Run chunks[0] of every context in this process and each later chunk in
    one forked child, which runs that chunk of every context; one chunk forks
    nothing. Returns each context's outcomes, joined in chunk order, and the
    seconds this process spent on each context's own chunk. Every pipe is
    read to EOF before any child is reaped. A child's exception is raised here
    with its type and message, and a child that exits without writing its
    result raises RuntimeError. If anything raises, every child not yet
    reaped is killed and reaped."""
    children = []  # (pid, pipe) not yet reaped, in chunk order
    try:
        for trials in chunks[1:]:
            children.append(_fork_worker(contexts, trials))
        own, own_s = [], []
        for ctx in contexts:
            t0 = time.perf_counter()
            own.append(_trial_chunk(ctx, chunks[0]))
            own_s.append(time.perf_counter() - t0)
        payloads = []
        for _, pipe in children:
            with pipe:
                payloads.append(pipe.read())
        parts = [own]
        for payload in payloads:
            pid = children[0][0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if status != 0:
                raise RuntimeError(f"trial worker {pid} exited with status {status} without a result")
            result, tb = pickle.loads(payload)  # written by our own child
            if tb is not None:
                raise result from RuntimeError(f"in trial worker {pid}:\n{tb}")
            parts.append(result)
        return [np.concatenate(outcomes) for outcomes in zip(*parts)], own_s
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_repetition(config: ScenarioConfig, schemes: tuple[str, ...], rep: int) -> list[ResultRow]:
    """Run all trials of each scheme in one repetition and aggregate them into
    one ResultRow per scheme, in scheme order. Every scheme's context is built
    first, in scheme order. The trials are then split into at most one chunk
    per thread and per trial, the same chunks for every scheme, and run as
    `_run_chunks` says: the repetition forks its `threads` - 1 workers once,
    whatever the number of schemes, and one worker forks nothing. A row's
    wall_clock is its context build plus a share of the trial phase (forks,
    chunks and results), in proportion to the time this process spent on the
    scheme's own chunk, so a repetition's rows add up to its wall time before
    aggregation."""
    contexts, build_s = [], []
    for scheme in schemes:
        t0 = time.perf_counter()
        contexts.append(build_context(config, scheme, rep))
        build_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    _raise_heap_thresholds()
    workers = min(config.threads, config.trials)
    chunks = [c.tolist() for c in np.array_split(np.arange(config.trials), workers)]
    if workers > 1:
        _release_free_heap()
    outcomes, own_s = _run_chunks(contexts, chunks)
    trial_s, own_total = time.perf_counter() - t0, sum(own_s)
    return [_aggregate(ctx, o, b + trial_s * s / own_total)
            for ctx, o, b, s in zip(contexts, outcomes, build_s, own_s)]


def run_scheme(config: ScenarioConfig, scheme: str, rep: int = 0) -> ResultRow:
    """Run all trials for one scheme in one repetition and aggregate them into
    a ResultRow: `_run_repetition` for this scheme alone."""
    return _run_repetition(config, (scheme,), rep)[0]


def run_campaign(config: ScenarioConfig) -> list[ResultRow]:
    """Run every configured scheme and repetition through `_run_repetition`,
    one repetition at a time; rows come back in a fixed (repetition, scheme)
    order."""
    return [row for rep in range(config.repetitions)
            for row in _run_repetition(config, config.schemes, rep)]
