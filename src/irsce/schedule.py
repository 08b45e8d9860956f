"""Pilot and reflection schedules for the three estimation phases.

A schedule is a pair of matrices: pilots (K x tau, entries of modulus 0 or 1)
and reflection coefficients (N x tau, same modulus constraint). Phase I uses
orthogonal complex-exponential pilot rows with the IRS off; Phase II keeps
only user 1 transmitting against DFT (or on-off / random-phase) reflections;
Phase III schedules users 2..K against elementwise on-off patterns chosen so
that the scaling factors lam_{k,n} are identifiable with the minimum number
of slots.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import InfeasibleScheduleError
from .model import SystemDims, _as_generator

_MODULUS_TOL = 1e-9


@dataclass(frozen=True)
class Schedule:
    """Per-slot pilot symbols (K x tau) and reflection coefficients (N x tau)."""

    pilots: np.ndarray
    reflections: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pilots", np.asarray(self.pilots, dtype=complex))
        object.__setattr__(self, "reflections", np.asarray(self.reflections, dtype=complex))
        if self.pilots.ndim != 2 or self.reflections.ndim != 2:
            raise ValueError("pilots and reflections must be 2-D arrays")
        if self.pilots.shape[1] != self.reflections.shape[1]:
            raise ValueError("pilots and reflections must cover the same number of slots")
        for name, a in (("pilot", self.pilots), ("reflection", self.reflections)):
            mod = np.abs(a)
            if not np.all((mod < _MODULUS_TOL) | (np.abs(mod - 1.0) < _MODULUS_TOL)):
                raise ValueError(f"{name} entries must have modulus 0 or 1")

    @property
    def tau(self) -> int:
        return self.pilots.shape[1]


def concat_schedules(*schedules: Schedule) -> Schedule:
    """Concatenate phase schedules along the slot axis."""
    return Schedule(
        np.hstack([s.pilots for s in schedules]),
        np.hstack([s.reflections for s in schedules]),
    )


def schedule_to_csv(schedule: Schedule, path) -> None:
    """Dump a schedule, one row per slot: slot index (1-based), then pilot
    real/imag per user and reflection real/imag per element."""
    K = schedule.pilots.shape[0]
    N = schedule.reflections.shape[0]
    header = ["slot"]
    header += [f"a{k}_{part}" for k in range(1, K + 1) for part in ("re", "im")]
    header += [f"phi{n}_{part}" for n in range(1, N + 1) for part in ("re", "im")]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for i in range(schedule.tau):
            row = [i + 1]
            for k in range(K):
                row += [f"{schedule.pilots[k, i].real:.12g}", f"{schedule.pilots[k, i].imag:.12g}"]
            for n in range(N):
                row += [f"{schedule.reflections[n, i].real:.12g}", f"{schedule.reflections[n, i].imag:.12g}"]
            w.writerow(row)


def min_tau3(dims: SystemDims) -> int:
    """Minimum Phase-III length for perfect noiseless recovery:
    max(K-1, ceil((K-1)N/M)); zero when there is a single user."""
    if dims.K == 1:
        return 0
    return max(dims.K - 1, ceil((dims.K - 1) * dims.N / dims.M))


def min_total_pilots(dims: SystemDims) -> int:
    """Minimum total pilot length K + N + min_tau3."""
    return dims.K + dims.N + min_tau3(dims)


def benchmark_total_pilots(dims: SystemDims) -> int:
    """Total pilot length of the per-user baseline: K + K*N."""
    return dims.K + dims.K * dims.N


@dataclass(frozen=True)
class PhasePlan:
    """Slot counts for the three phases."""

    tau1: int
    tau2: int
    tau3: int

    @property
    def total(self) -> int:
        return self.tau1 + self.tau2 + self.tau3

    @classmethod
    def minimum(cls, dims: SystemDims) -> "PhasePlan":
        return cls(dims.K, dims.N, min_tau3(dims))

    def with_extra(self, extra: int, policy: str) -> "PhasePlan":
        """Allocate `extra` slots: all to Phase I, all to Phase II, or evenly.

        The `even` policy gives each phase extra // 3 slots; a remainder of
        one goes to Phase II, a remainder of two to Phases II and III.
        """
        if extra < 0:
            raise ValueError("extra slot count must be nonnegative")
        if policy == "phaseI":
            return PhasePlan(self.tau1 + extra, self.tau2, self.tau3)
        if policy == "phaseII":
            return PhasePlan(self.tau1, self.tau2 + extra, self.tau3)
        if policy == "even":
            q, r = divmod(extra, 3)
            return PhasePlan(self.tau1 + q, self.tau2 + q + (r >= 1), self.tau3 + q + (r >= 2))
        raise ValueError(f"unknown extra-slot policy {policy!r}")


def phase1_pilots(K: int, tau1: int) -> np.ndarray:
    """Orthogonal Phase-I pilot rows: a_{k,i} = exp(-2j*pi*(k-1)*i / tau1).

    The Gram matrix A @ A^H equals tau1 * I whenever tau1 >= K.
    """
    if tau1 < K:
        raise InfeasibleScheduleError(f"tau1={tau1} < K={K}")
    return np.exp(-2j * np.pi * np.outer(np.arange(K), np.arange(tau1)) / tau1)


def phase2_reflections_dft(N: int, tau2: int) -> np.ndarray:
    """DFT reflection pattern: entry (n, i) = omega**(n*i), omega = exp(-2j*pi/tau2).

    Satisfies Phi @ Phi^H = tau2 * I for tau2 >= N.
    """
    if tau2 < N:
        raise InfeasibleScheduleError(f"tau2={tau2} < N={N}")
    return np.exp(-2j * np.pi * np.outer(np.arange(N), np.arange(tau2)) / tau2)


def phase2_reflections_onoff(N: int, tau2: int) -> np.ndarray:
    """One element on per slot, cycling through elements in order."""
    if tau2 < N:
        raise InfeasibleScheduleError(f"tau2={tau2} < N={N}")
    phi = np.zeros((N, tau2), dtype=complex)
    phi[np.arange(tau2) % N, np.arange(tau2)] = 1.0
    return phi


def phase2_reflections_random(N: int, tau2: int, seed) -> np.ndarray:
    """All elements on with independent uniform phases in [0, 2*pi)."""
    if tau2 < N:
        raise InfeasibleScheduleError(f"tau2={tau2} < N={N}")
    rng = _as_generator(seed)
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(N, tau2)))


def phase2_pilots(K: int, tau2: int) -> np.ndarray:
    """Phase-II pilots: user 1 sends all ones, everyone else is silent."""
    pilots = np.zeros((K, tau2), dtype=complex)
    pilots[0] = 1.0
    return pilots


def dft_block(N: int, tau: int) -> np.ndarray:
    """DFT-style reflection block allowing tau < N (first tau columns of the
    N-point DFT matrix); for tau >= N this is the standard pattern."""
    if tau >= N:
        return phase2_reflections_dft(N, tau)
    return np.exp(-2j * np.pi * np.outer(np.arange(N), np.arange(tau)) / N)


# --------------------------------------------------------------------------
# Phase III, noiseless-optimal construction
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleUserSlot:
    """Stage-1 slot: one user transmits, M elements of its primary set are on."""

    user: int                  # 1-based, >= 2
    elements: tuple[int, ...]  # Omega_i, 1-based element indices


@dataclass(frozen=True)
class MultiUserSlot:
    """Stage-2 slot: several users transmit; each target pairs one user with
    one of its leftover elements, in the construction's j order."""

    users: tuple[int, ...]                 # distinct scheduled users, sorted
    targets: tuple[tuple[int, int], ...]   # (user, element) unknowns, 1-based


@dataclass(frozen=True)
class Phase3Plan:
    """Index-set plan behind the minimum-length Phase-III schedule (M < N).

    lambda1[k-2] / lambda2[k-2] partition {1..N} for user k: the N - upsilon
    elements resolved one user at a time, and the upsilon leftovers resolved
    in shared slots. Degenerate (empty stages) when M >= N or K == 1.
    """

    dims: SystemDims
    rho: int
    upsilon: int
    lambda1: tuple[tuple[int, ...], ...]
    lambda2: tuple[tuple[int, ...], ...]
    stage1: tuple[SingleUserSlot, ...]
    stage2: tuple[MultiUserSlot, ...]

    @property
    def degenerate(self) -> bool:
        return not self.stage1 and not self.stage2


def phase3_plan(dims: SystemDims) -> Phase3Plan:
    """Build the Phase-III index sets. For M >= N (or K == 1) the returned
    plan is degenerate and callers branch to the all-elements-on schedule."""
    K, N, M = dims.K, dims.N, dims.M
    if K == 1 or M >= N:
        return Phase3Plan(dims, 0, 0, (), (), (), ())

    rho, ups = N // M, N % M
    if ups:
        lambda2 = []
        for k in range(2, K + 1):
            wrapped = {m - ((m + N - 1) // N - 1) * N for m in range((k - 2) * ups + 1, (k - 1) * ups + 1)}
            lambda2.append(tuple(sorted(wrapped)))
    else:
        lambda2 = [() for _ in range(K - 1)]
    full = set(range(1, N + 1))
    lambda1 = tuple(tuple(sorted(full - set(l2))) for l2 in lambda2)
    lambda2 = tuple(lambda2)

    stage1 = []
    for i in range(1, (K - 1) * rho + 1):
        k = (i + rho - 1) // rho + 1
        kappa = (i - ((i + rho - 1) // rho - 1) * rho - 1) * M
        stage1.append(SingleUserSlot(k, lambda1[k - 2][kappa:kappa + M]))

    stage2 = []
    n_stage2 = ceil((K - 1) * ups / M) if ups else 0
    for s in range(1, n_stage2 + 1):
        lo = (s - 1) * M + 1
        hi = min(s * M, (K - 1) * ups)
        targets = []
        for j in range(lo, hi + 1):
            k = (j + ups - 1) // ups + 1
            local = j - ((j + ups - 1) // ups - 1) * ups
            targets.append((k, lambda2[k - 2][local - 1]))
        stage2.append(MultiUserSlot(tuple(sorted({k for k, _ in targets})), tuple(targets)))

    plan = Phase3Plan(dims, rho, ups, lambda1, lambda2, tuple(stage1), tuple(stage2))
    validate_phase3_plan(plan)
    return plan


def validate_phase3_plan(plan: Phase3Plan) -> None:
    """Structural checks on a Phase-III plan; raises InfeasibleScheduleError.

    Verifies the per-user partition of {1..N}, single coverage of all
    (K-1)*N unknowns, distinct on-elements per shared slot, and the recovery
    order: every interfering scaling factor a slot observes must have been
    recoverable in an earlier slot. (Leftover sets of two users sharing a
    slot can overlap once their index windows wrap past N, but the
    overlapping elements are never switched on in that slot, so the
    slot-local condition below is the one identifiability needs.)
    """
    if plan.degenerate:
        return
    K, N = plan.dims.K, plan.dims.N
    full = set(range(1, N + 1))
    for l1, l2 in zip(plan.lambda1, plan.lambda2):
        if set(l1) | set(l2) != full or set(l1) & set(l2):
            raise InfeasibleScheduleError("lambda1/lambda2 do not partition {1..N}")
        if len(l2) != plan.upsilon or len(l1) != N - plan.upsilon:
            raise InfeasibleScheduleError("lambda set cardinalities are wrong")

    known: set[tuple[int, int]] = set()
    for slot in plan.stage1:
        for n in slot.elements:
            pair = (slot.user, n)
            if pair in known:
                raise InfeasibleScheduleError(f"duplicate recovery of {pair}")
            known.add(pair)
    for slot in plan.stage2:
        on = {n for _, n in slot.targets}
        if len(on) != len(slot.targets):
            raise InfeasibleScheduleError("stage-2 slot targets repeat an element")
        # every non-target contribution in the slot must already be known
        for k in slot.users:
            for n in on:
                if (k, n) not in slot.targets and (k, n) not in known:
                    raise InfeasibleScheduleError(
                        f"slot needs lam[{k},{n}] before it is recoverable")
        for pair in slot.targets:
            if pair in known:
                raise InfeasibleScheduleError(f"duplicate recovery of {pair}")
            known.add(pair)
    expected = {(k, n) for k in range(2, K + 1) for n in range(1, N + 1)}
    if known != expected:
        raise InfeasibleScheduleError("plan does not cover every (user, element) exactly once")


def _on_off_schedule(
    K: int, N: int, cycle: list[tuple[tuple[int, ...], tuple[int, ...]]], tau3: int | None
) -> tuple[Schedule, list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Phase-III schedule from a base cycle of (users, elements) slots, 1-based:
    in each slot those users send pilot 1 and those elements reflect with
    coefficient 1, all others are off. The cycle repeats out to tau3 (default:
    its length); an empty cycle gives tau3 silent slots. Returns the schedule
    and the (users, elements) of each of its slots."""
    base = len(cycle)
    if tau3 is None:
        tau3 = base
    if tau3 < base:
        raise InfeasibleScheduleError(f"tau3={tau3} below minimum {base}")
    slots = [cycle[i % base] for i in range(tau3)] if base else []
    pilots = np.zeros((K, tau3), dtype=complex)
    refl = np.zeros((N, tau3), dtype=complex)
    for i, (users, elements) in enumerate(slots):
        pilots[[k - 1 for k in users], i] = 1.0
        refl[[n - 1 for n in elements], i] = 1.0
    return Schedule(pilots, refl), slots


def phase3_schedule_noiseless(dims: SystemDims, tau3: int | None = None) -> tuple[Schedule, Phase3Plan]:
    """Minimum-length Phase-III schedule for exact noiseless recovery.

    M >= N: user k transmits alone in slot k-1 with every element on.
    M < N: stage-1 slots activate one user and M of its primary elements;
    stage-2 slots activate several users and their leftover elements.
    Extra slots beyond the minimum repeat the base columns cyclically.
    """
    K, N = dims.K, dims.N
    plan = phase3_plan(dims)
    if plan.degenerate:  # also K = 1, whose cycle is empty
        cycle = [((k,), tuple(range(1, N + 1))) for k in range(2, K + 1)]
    else:
        cycle = [((slot.user,), slot.elements) for slot in plan.stage1]
        cycle += [(slot.users, tuple(n for _, n in slot.targets)) for slot in plan.stage2]
    return _on_off_schedule(K, N, cycle, tau3)[0], plan


# --------------------------------------------------------------------------
# Phase III, orthogonal strategy for the noisy case
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OrthogonalPlan:
    """One user and at most M elements active per slot.

    users[i] is the scheduled user of slot i and elements[i] its active
    subset. Each user gets ceil(N/M) consecutive slots whose subsets tile
    {1..N} exactly once.
    """

    users: tuple[int, ...]
    elements: tuple[tuple[int, ...], ...]


def phase3_schedule_orthogonal_noisy(dims: SystemDims, tau3: int | None = None) -> tuple[Schedule, OrthogonalPlan]:
    """Orthogonal Phase-III schedule for noisy estimation.

    The base cycle has (K-1) * ceil(N/M) slots; a larger tau3 repeats the
    cycle so the estimator can average repeated observations.
    """
    K, N, M = dims.K, dims.N, dims.M
    cycle = [((k,), tuple(range(j * M + 1, min((j + 1) * M, N) + 1)))
             for k in range(2, K + 1) for j in range(ceil(N / M))]
    sched, slots = _on_off_schedule(K, N, cycle, tau3)
    return sched, OrthogonalPlan(tuple(k for (k,), _ in slots), tuple(delta for _, delta in slots))


def benchmark_phase3_schedule(dims: SystemDims, tau2: int) -> Schedule:
    """Per-user baseline for Phase III: user k transmits all-ones pilots for a
    tau2-slot block against a DFT-style reflection block, k = 2..K."""
    K, N = dims.K, dims.N
    tau3 = (K - 1) * tau2
    pilots = np.zeros((K, tau3), dtype=complex)
    block = dft_block(N, tau2)
    refl = np.tile(block, (1, K - 1)) if K > 1 else np.zeros((N, 0), dtype=complex)
    for k in range(2, K + 1):
        pilots[k - 1, (k - 2) * tau2:(k - 1) * tau2] = 1.0
    return Schedule(pilots, refl)
