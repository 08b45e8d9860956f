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

from dataclasses import dataclass
from functools import cached_property
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


def min_tau3(dims: SystemDims) -> int:
    """Minimum Phase-III length for perfect noiseless recovery:
    max(K-1, ceil((K-1)N/M)), which is zero when there is a single user."""
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


def dft_block(rows: int, tau: int) -> np.ndarray:
    """The leading rows x tau block of the max(rows, tau)-point DFT matrix:
    entry (r, i) = exp(-2j*pi*r*i / max(rows, tau)). For tau >= rows its
    rows are orthogonal, S @ S^H = tau * I; this is the Phase-I pilots, the
    Phase-II DFT pattern and each per-user baseline block."""
    return np.exp(-2j * np.pi * np.outer(np.arange(rows), np.arange(tau)) / max(rows, tau))


def phase1_pilots(K: int, tau1: int) -> np.ndarray:
    """Orthogonal Phase-I pilot rows a_{k,i} = exp(-2j*pi*(k-1)*i / tau1),
    the DFT block (K, tau1); tau1 must be at least K."""
    if tau1 < K:
        raise InfeasibleScheduleError(f"tau1={tau1} < K={K}")
    return dft_block(K, tau1)


def phase2_reflections_dft(N: int, tau2: int) -> np.ndarray:
    """DFT reflection pattern phi_{n,i} = exp(-2j*pi*n*i / tau2), the DFT
    block (N, tau2); tau2 must be at least N."""
    if tau2 < N:
        raise InfeasibleScheduleError(f"tau2={tau2} < N={N}")
    return dft_block(N, tau2)


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


# --------------------------------------------------------------------------
# Phase III, on/off plans: the noiseless-optimal and the orthogonal noisy one
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Phase3Slot:
    """One slot of an on/off Phase-III plan: its targets, each pairing one
    user with one element whose scaling factor the slot recovers once every
    other (user, element) pair it switches on is known. The targets' users
    transmit and their elements are on. A slot of one user's primary
    elements has no such other pairs; a slot of shared leftovers may."""

    targets: tuple[tuple[int, int], ...]   # (user, element) unknowns, 1-based

    @cached_property
    def users(self) -> tuple[int, ...]:
        """The distinct users of the targets, sorted: they transmit."""
        return tuple(sorted({k for k, _ in self.targets}))

    @cached_property
    def elements(self) -> tuple[int, ...]:
        """The on-elements, one per target, in target order."""
        return tuple(n for _, n in self.targets)

    @cached_property
    def interference(self) -> tuple[tuple[int, int], ...]:
        """The other (user, element) pairs the slot switches on, users first,
        then on-elements: their scaling factors must be known before it."""
        targets = set(self.targets)
        return tuple((k, n) for k in self.users for n in self.elements if (k, n) not in targets)


@dataclass(frozen=True)
class Phase3Plan:
    """The base cycle of slots behind an on/off Phase-III schedule: the
    minimum-length one of `phase3_plan` or the orthogonal noisy one. A
    longer schedule repeats the cycle. With K == 1 there are no slots.
    """

    dims: SystemDims
    slots: tuple[Phase3Slot, ...]

    @property
    def users(self) -> tuple[tuple[int, ...], ...]:
        """Each base slot's users; `elements`, its on-elements."""
        return tuple(slot.users for slot in self.slots)

    @property
    def elements(self) -> tuple[tuple[int, ...], ...]:
        return tuple(slot.elements for slot in self.slots)

    def columns(self, tau3: int) -> tuple[range, ...]:
        """The columns of each base slot in a schedule that repeats the
        cycle of b slots out to tau3: slot i's are i, i + b, ... < tau3, so
        its repeat count is their number."""
        b = len(self.slots)
        return tuple(range(i, tau3, b) for i in range(b))


def _cut(pairs: list[tuple[int, int]], width: int) -> tuple[Phase3Slot, ...]:
    """Cut (user, element) pairs, in order, into slots of `width` targets
    each; the last slot takes what is left."""
    return tuple(Phase3Slot(tuple(pairs[c:c + width])) for c in range(0, len(pairs), width))


def phase3_plan(dims: SystemDims) -> Phase3Plan:
    """Build and validate the minimum-length Phase-III plan for any (K, N, M).

    Each slot switches on at most M' = min(M, N) elements. With
    N = rho*M' + upsilon, user k's upsilon leftovers lambda2 are the window
    (k-2)*upsilon+1 .. (k-1)*upsilon wrapped mod N, kept in window order,
    and its primary elements lambda1 are the rest. Every user's primaries,
    user by user, are cut into slots of M' (rho slots each, one user
    alone), then all users' leftovers, user by user, into shared slots.
    """
    K, N = dims.K, dims.N
    M = min(dims.M, N)
    ups = N % M
    lambda2 = [[m % N + 1 for m in range((k - 2) * ups, (k - 1) * ups)] for k in range(2, K + 1)]
    lambda1 = [[n for n in range(1, N + 1) if n not in l2] for l2 in lambda2]
    primaries = [(k, n) for k, l1 in enumerate(lambda1, start=2) for n in l1]
    leftovers = [(k, n) for k, l2 in enumerate(lambda2, start=2) for n in l2]
    plan = Phase3Plan(dims, _cut(primaries, M) + _cut(leftovers, M))
    validate_phase3_plan(plan)
    return plan


def validate_phase3_plan(plan: Phase3Plan) -> None:
    """Structural checks on a Phase-III plan; raises InfeasibleScheduleError.

    Walks the slots in order and verifies distinct on-elements per slot, the
    recovery order (every interfering scaling factor a slot observes must
    have been recovered in an earlier slot), and that each of the (K-1)*N
    (user, element) pairs is recovered exactly once, which partitions each
    user's elements among its slots. (Leftovers of two users sharing a slot
    can coincide once their windows wrap past N, but such an element is
    never switched on in that slot, so the slot-local condition is the one
    identifiability needs.)
    """
    K, N = plan.dims.K, plan.dims.N
    known: set[tuple[int, int]] = set()
    for slot in plan.slots:
        if len(set(slot.elements)) != len(slot.targets):
            raise InfeasibleScheduleError("slot targets repeat an element")
        for k, n in slot.interference:
            if (k, n) not in known:
                raise InfeasibleScheduleError(f"slot needs lam[{k},{n}] before it is recoverable")
        for pair in slot.targets:
            if pair in known:
                raise InfeasibleScheduleError(f"duplicate recovery of {pair}")
            known.add(pair)
    expected = {(k, n) for k in range(2, K + 1) for n in range(1, N + 1)}
    if known != expected:
        raise InfeasibleScheduleError("plan does not cover every (user, element) exactly once")


def _on_off_schedule(plan: Phase3Plan, tau3: int | None) -> Schedule:
    """Phase-III schedule of a plan's base cycle: in each slot its users send
    pilot 1 and its on-elements reflect with coefficient 1, all others are
    off. The cycle's b columns are built once and repeat out to tau3
    (default: b), column i taking base column i mod b."""
    base = len(plan.slots)
    if tau3 is None:
        tau3 = base
    if tau3 < base:
        raise InfeasibleScheduleError(f"tau3={tau3} below minimum {base}")
    width = max(base, 1)  # an empty cycle repeats one silent slot
    pilots = np.zeros((plan.dims.K, width), dtype=complex)
    refl = np.zeros((plan.dims.N, width), dtype=complex)
    for i, slot in enumerate(plan.slots):
        pilots[[k - 1 for k in slot.users], i] = 1.0
        refl[[n - 1 for n in slot.elements], i] = 1.0
    cols = np.arange(tau3) % width
    return Schedule(np.take(pilots, cols, axis=1), np.take(refl, cols, axis=1))


def phase3_schedule_noiseless(dims: SystemDims, tau3: int | None = None) -> tuple[Schedule, Phase3Plan]:
    """Minimum-length Phase-III schedule for exact noiseless recovery.

    Each slot of the plan activates its users and its targets' elements:
    first one user and min(M, N) of its primary elements, so with M >= N
    user k transmits alone in slot k-1 with every element on; then several
    users and their leftover elements. When min(M, N) divides N there are no
    leftovers and the plan is the orthogonal noisy one. Extra slots beyond
    the minimum repeat the base columns cyclically; the noiseless recovery
    solves each base-cycle slot once and does not read the repeats.
    """
    plan = phase3_plan(dims)
    return _on_off_schedule(plan, tau3), plan


def phase3_schedule_orthogonal_noisy(dims: SystemDims, tau3: int | None = None) -> tuple[Schedule, Phase3Plan]:
    """Orthogonal Phase-III schedule for noisy estimation.

    Its plan has no leftovers: each user's elements 1..N, in order, are cut
    into slots of M' = min(M, N), the user alone in each, so the base cycle
    has (K-1) * ceil(N/M) slots. A larger tau3 repeats the cycle so the
    estimator can average repeated observations.
    """
    K, N = dims.K, dims.N
    M = min(dims.M, N)
    slots = (s for k in range(2, K + 1) for s in _cut([(k, n) for n in range(1, N + 1)], M))
    plan = Phase3Plan(dims, tuple(slots))
    validate_phase3_plan(plan)
    return _on_off_schedule(plan, tau3), plan


def benchmark_phase3_schedule(dims: SystemDims, tau2: int) -> Schedule:
    """Per-user baseline for Phase III: user k transmits all-ones pilots for a
    tau2-slot block against the DFT block (N, tau2), k = 2..K."""
    K, N = dims.K, dims.N
    tau3 = (K - 1) * tau2
    pilots = np.zeros((K, tau3), dtype=complex)
    block = dft_block(N, tau2)
    refl = np.tile(block, (1, K - 1))
    for k in range(2, K + 1):
        pilots[k - 1, (k - 2) * tau2:(k - 1) * tau2] = 1.0
    return Schedule(pilots, refl)
