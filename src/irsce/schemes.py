"""The scheme table: what each scheme id computes.

A scheme is three independent choices: a noise model (`ExactInversion` or
`Lmmse`), a Phase-II reflection pattern (a fixed pattern function, or
uniform random phases redrawn per trial) and a Phase-III strategy
(`MinimumLength`, `OrthogonalLmmse` or `PerUserBaseline`). `SCHEME_TABLE` is
the single definition of each scheme, and every other list of scheme ids is
derived from it: `SCHEMES` here, which `config` validates against.

This module owns the noise models, the Phase-III strategies and the slot
counts each scheme resolves to (`_phase_plan`). `harness` owns the random
streams, the scenario each scheme is built on, the trial blocks and the
worker pool; it imports this module, never the other way round. Every class
is module-level, so that a `harness.TrialContext` holding their instances
pickles.
"""

from __future__ import annotations

from math import ceil, fsum, nan
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .errors import InfeasibleScheduleError
from .estimate import (
    LmmseWeights,
    Phase2NoiseInverse,
    _check_orthogonal,
    estimate_lambda_priors,
    lmmse_weights,
    phase1_mmse,
    phase1_mse,
    phase3_lmmse_all_slots,
    phase3_recover_noiseless,
    phase3_slot_classes,
    prior_inverse,
    psi_phase3,
    recover_orthogonal,
    reflected_from_scaling,
    reflected_gram,
)
from .model import SystemDims, exp_correlation_matrix
from .schedule import (
    Phase3Plan,
    PhasePlan,
    Schedule,
    benchmark_phase3_schedule,
    min_tau3,
    phase2_reflections_dft,
    phase2_reflections_onoff,
    phase2_reflections_random,
    phase3_schedule_noiseless,
    phase3_schedule_orthogonal_noisy,
)

if TYPE_CHECKING:
    from .config import ScenarioConfig
    from .harness import _Scenario

# Stream purpose tag of the scaling-factor priors, drawn once per repetition
# from (seed, rep, TAG_STATS, 2); the trial tags are harness's.
TAG_STATS = 102

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
        M, p, s2, beta, tau1 = sc.dims.M, sc.budget.p, sc.budget.sigma2, sc.channel.beta_bu, sc.plan.tau1
        self.e1_pred = float(np.sum(phase1_mse(M, tau1, p, s2, beta)) / np.sum(M * beta))
        self.psi2_inv = Phase2NoiseInverse.of(M, tau1, p, s2, float(beta[0]))
        cbi1 = reflected_gram(sc.channel, 1)
        self.cbi1_inv = prior_inverse(cbi1)
        self.e2_pred_den = float(np.trace(cbi1).real)
        self.fixed_weights = None if sc.phase2.refl is None else self.weights(sc.phase2.refl, sc)
        self.fixed_filter = None if self.fixed_weights is None else self.fixed_weights.filter(p)

    def phase1(self, y1, sc: _Scenario) -> np.ndarray:
        return phase1_mmse(y1, sc.sched1.pilots, sc.budget.p, sc.budget.sigma2, sc.channel.beta_bu)

    def weights(self, refl2: np.ndarray, sc: _Scenario) -> LmmseWeights:
        """The Phase-II LMMSE weights of a reflection pattern, or of a stack."""
        return lmmse_weights(refl2.conj().swapaxes(-1, -2), 1, sc.budget.p, self.psi2_inv, self.cbi1_inv)

    def phase2(self, ybar2, refl2, sc: _Scenario) -> tuple[np.ndarray, np.ndarray]:
        if self.fixed_filter is not None:
            return ybar2 @ self.fixed_filter, self.fixed_weights.mse
        w = self.weights(refl2, sc)
        return w.estimate(ybar2, sc.budget.p), w.mse


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
    def min_tau3(dims: SystemDims, tau2: int) -> int:
        return min_tau3(dims)  # the paper's max(K-1, ceil((K-1)N/M)), as `irsce plan` prints it

    schedule = staticmethod(phase3_schedule_noiseless)

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
    def min_tau3(dims: SystemDims, tau2: int) -> int:
        return (dims.K - 1) * ceil(dims.N / dims.M)

    schedule = staticmethod(phase3_schedule_orthogonal_noisy)

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
        plan, model = sc.layout, sc.channel
        slots = tuple((k, delta) for (k,), delta in zip(plan.users, plan.elements))
        psi3 = {
            (k, r): psi_phase3(sc.budget.p, sc.budget.sigma2, float(model.beta_bu[k - 1]), sc.plan.tau1,
                               exp_correlation_matrix(model.corr.bs_direct[k - 1], sc.dims.M), r)
            for k, r in {(k, len(cols)) for (k, _), cols in zip(slots, plan.columns(sc.plan.tau3))}
        }
        if not slots:  # K = 1 has no Phase-III slots
            return psi3, {}
        cfg = sc.config
        key = (sc.dims.K, sc.dims.N, model.beta_iu.tobytes(), model.corr.irs_user.tobytes(), slots,
               cfg.prior_draws, cfg.prior_cap_scale, cfg.seed, sc.rep)
        memo = OrthogonalLmmse._prior_memo
        if memo is None or memo[0] != key:
            priors = estimate_lambda_priors(
                model, slots, trials=cfg.prior_draws,
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
    sends a Phase-II-style block of tau3 // (K-1) slots, read off its schedule,
    and its reflected channels are estimated directly, with no on/off plan."""

    e3_pred_den = 1.0

    @staticmethod
    def min_tau3(dims: SystemDims, tau2: int) -> int:
        return (dims.K - 1) * tau2

    @staticmethod
    def schedule(dims: SystemDims, tau3: int) -> tuple[Schedule, None]:
        if tau3 < dims.K - 1:
            raise InfeasibleScheduleError(f"benchmark needs tau3 >= K-1 = {dims.K - 1}, got {tau3}")
        return benchmark_phase3_schedule(dims, tau3 // max(dims.K - 1, 1)), None

    def __init__(self, sc: _Scenario):
        K, N, M = sc.dims.K, sc.dims.N, sc.dims.M
        p, s2, tau1, tau_b = sc.budget.p, sc.budget.sigma2, sc.plan.tau1, sc.sched3.tau // max(K - 1, 1)
        psi_inv = Phase2NoiseInverse.of(M, tau1, p, s2, sc.channel.beta_bu[1:, None, None])
        grams = [reflected_gram(sc.channel, k) for k in range(2, K + 1)]
        # every user's block reflects the same DFT block (N, tau_b): take the first
        w = lmmse_weights(sc.sched3.reflections[:, :tau_b].conj().T, 1, p, psi_inv,
                          prior_inverse(np.reshape(grams, (K - 1, N, N))))
        # each user's Phase-II-style filter sqrt(p) Psi_k^-1 Phi^H cov_k, (K-1, tau_b, N)
        self.filters = w.filter(p)

    def estimate(self, ybar3, chan, g1_hat, sc: _Scenario):
        """One product of each user's (M, tau_b) block view with its filter
        (K-1, tau_b, N)."""
        *lead, M, _ = ybar3.shape
        blocks = ybar3.reshape(*lead, M, *self.filters.shape[:2]).swapaxes(-3, -2)
        return nan, blocks @ self.filters, nan


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

SCHEMES = tuple(SCHEME_TABLE)
DEFAULT_SCHEMES = ("proposed-lmmse",)   # what a config without a `scheme` key runs


def _phase_plan(config: ScenarioConfig, scheme: str, dims: SystemDims) -> tuple[PhasePlan, Schedule, Phase3Plan | None]:
    """A scheme's slot counts, with its Phase-III schedule and on/off plan (None
    for the baseline): configured values, else the scheme's minimum (tau3: its
    strategy's closed form `min_tau3`), then the extra-slot policy. The schedule
    is built once, at that tau3, and tau3 is its length: 0 for a single user,
    who has no Phase III, and whole per-user blocks for the benchmark."""
    phase3 = SCHEME_TABLE[scheme].phase3
    tau1 = config.tau1 if config.tau1 is not None else dims.K
    tau2 = config.tau2 if config.tau2 is not None else dims.N
    tau3 = config.tau3 if config.tau3 is not None else phase3.min_tau3(dims, tau2)
    plan = PhasePlan(tau1, tau2, tau3).with_extra(config.extra_slots, config.extra_policy)
    sched3, layout = phase3.schedule(dims, plan.tau3 if dims.K > 1 else 0)
    return PhasePlan(plan.tau1, plan.tau2, sched3.tau), sched3, layout


def resolve_phase_plan(config: ScenarioConfig, scheme: str) -> PhasePlan:
    """The slot counts a scheme runs with (see `_phase_plan`)."""
    return _phase_plan(config, scheme, SystemDims(config.K, config.N, config.M))[0]
