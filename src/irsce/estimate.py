"""Channel recovery from received pilot blocks.

Exact solvers for the noiseless case follow the closed-form inversions of the
three-phase protocol; the noisy case uses the scalar-coefficient MMSE form for
the direct channels and LMMSE estimators (with interference cancellation) for
the reflected channels and scaling factors. Received blocks are plain (M, tau)
complex arrays whose columns are the per-slot BS observations; the estimators
the harness runs also take a leading axis of trials, one block each.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateChannelError,
    NumericalConditioningError,
    PreconditionError,
)
from .model import (
    ChannelRealization,
    CorrelationSpec,
    LinkBudget,
    PathLossSpec,
    SystemDims,
    _as_generator,
    coloring_root,
    complex_normal,
    exp_correlation_matrix,
    path_loss,
)
from .schedule import OrthogonalPlan, Phase3Plan, Schedule, SingleUserSlot

_SVD_RCOND = 1e-10
_GRAM_RTOL = 1e-8


def reflected_from_scaling(lam: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Reflected-channel estimates (K-1, N, M) of users 2..K from their
    scaling factors lam (K-1, N) and user 1's columns g1 (M, N):
    g_{k,n} = lam_{k,n} * g1_n. Leading axes of both are broadcast."""
    return lam[..., :, :, None] * g1.swapaxes(-1, -2)[..., None, :, :]


def simulate_received(
    chan: ChannelRealization,
    sched: Schedule,
    budget: LinkBudget,
    noise_on: bool = True,
    rng=None,
) -> np.ndarray:
    """Received BS signal (M, tau): per slot i,
    y_i = sum_k (h_k + sum_n phi_{n,i} g_{k,n}) * sqrt(p) * a_{k,i} + z_i,
    with z = 0 when noise is off.

    Since g_{k,n} = t_{k,n} r_n, the reflected sum is formed from the channel
    factors as R (Phi o T^T A), never from the K*N reflected channels."""
    A, phi = sched.pilots, sched.reflections
    if A.shape[0] != chan.h.shape[0] or phi.shape[0] != chan.t.shape[1]:
        raise ValueError("schedule dimensions do not match the channel realization")
    y = _received(chan, A, phi, budget.p)
    if noise_on:
        if rng is None:
            raise ValueError("a noise rng/seed is required when noise is on")
        y = y + complex_normal(_as_generator(rng), y.shape, budget.sigma2)
    return y


def _received(chan: ChannelRealization, pilots: np.ndarray, refl: np.ndarray, p: float) -> np.ndarray:
    """Noiseless received blocks sqrt(p) (H^T A + R (Phi o T^T A)) (..., M, tau)
    of a realization, or of a block of them, for pilots A (K, tau) and
    reflections Phi (N, tau), or one pattern per trial (..., N, tau). Costs
    (K + M) N tau multiply-adds per trial for the reflected part.

    Phi o T^T A is a ufunc call, not `*`: numpy computes `*` on a temporary
    of 256 KiB or more in place with its operands swapped, which rounds a
    complex product differently, so a trial's block would depend on how
    many trials share it."""
    return np.sqrt(p) * (chan.h.swapaxes(-1, -2) @ pilots
                         + chan.R @ np.multiply(refl, chan.t.swapaxes(-1, -2) @ pilots))


def _check_orthogonal(rows: np.ndarray, tau: int, what: str) -> None:
    gram = rows @ rows.conj().T
    if np.max(np.abs(gram - tau * np.eye(rows.shape[0]))) > _GRAM_RTOL * tau:
        raise PreconditionError(f"{what} rows are not orthogonal with norm {tau}")


def phase1_recover_noiseless(y: np.ndarray, pilots: np.ndarray, p: float) -> np.ndarray:
    """Exact direct-channel recovery (K, M) given orthogonal pilots and no noise:
    [h_1 .. h_K] = Y @ conj(pilots)^T / (tau1 * sqrt(p))."""
    _check_orthogonal(pilots, pilots.shape[1], "phase-1 pilot")
    return _phase1_exact(y, pilots, p)


def _phase1_exact(y: np.ndarray, pilots: np.ndarray, p: float) -> np.ndarray:
    """`phase1_recover_noiseless` for pilots already known to be orthogonal;
    y may carry leading axes."""
    return (y @ pilots.conj().T / (pilots.shape[1] * np.sqrt(p))).swapaxes(-1, -2)


def phase1_mmse(
    y: np.ndarray, pilots: np.ndarray, p: float, sigma2: float, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar-coefficient MMSE estimate of the direct channels under noise.

    h_hat_k = beta_k * sqrt(p) / (beta_k * p * tau1 + sigma2) * Y @ conj(a_k);
    the closed-form per-user MSE is M * beta_k * sigma2 / (beta_k * p * tau1 + sigma2).
    The scalar form is exact MMSE for white BS-side correlation and is used
    as printed for correlated channels as well.
    """
    _check_orthogonal(pilots, pilots.shape[1], "phase-1 pilot")
    return _phase1_mmse(y, pilots, p, sigma2, beta)


def _phase1_mmse(
    y: np.ndarray, pilots: np.ndarray, p: float, sigma2: float, beta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`phase1_mmse` for pilots already known to be orthogonal; y may carry
    leading axes."""
    tau1 = pilots.shape[1]
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    M = y.shape[-2]
    denom = beta * p * tau1 + sigma2
    h_hat = ((y @ pilots.conj().T) * (beta * np.sqrt(p) / denom)).swapaxes(-1, -2)
    mse = M * beta * sigma2 / denom
    return h_hat, mse


def cancel_direct(y: np.ndarray, h_hat: np.ndarray, pilots: np.ndarray, p: float) -> np.ndarray:
    """Subtract the direct-channel contribution sqrt(p) * h_hat_k * a_{k,i}
    from every slot; y and h_hat may carry the same leading axes."""
    if h_hat.shape[-2] != pilots.shape[0]:
        raise PreconditionError(
            f"need a direct-channel estimate for each of the {pilots.shape[0]} pilot rows")
    return y - np.sqrt(p) * h_hat.swapaxes(-1, -2) @ pilots


def phase2_recover_noiseless(ybar: np.ndarray, refl: np.ndarray, p: float) -> np.ndarray:
    """Exact recovery of user-1 reflected columns (M, N):
    [g_{1,1} .. g_{1,N}] = Ybar @ Phi^H / (tau2 * sqrt(p)), requiring
    Phi @ Phi^H = tau2 * I (DFT-style reflections, user-1 pilots all ones)."""
    _check_orthogonal(refl, refl.shape[1], "phase-2 reflection")
    return _phase2_exact(ybar, refl, p)


def _phase2_exact(ybar: np.ndarray, refl: np.ndarray, p: float) -> np.ndarray:
    """`phase2_recover_noiseless` for reflections already known to be
    orthogonal; ybar may carry leading axes."""
    return ybar @ refl.conj().T / (refl.shape[1] * np.sqrt(p))


def psi_phase2(tau2: int, M: int, p: float, sigma2: float, beta1: float, tau1: int) -> np.ndarray:
    """Effective Phase-II noise covariance (tau2 x tau2): residual Phase-I
    estimation error re-transmitted by user 1 with all-ones pilots, plus AWGN,
    Psi = p*M*beta1*sigma2/(beta1*p*tau1 + sigma2) * 1 1^T + M*sigma2*I."""
    c = p * M * beta1 * sigma2 / (beta1 * p * tau1 + sigma2)
    return c * np.ones((tau2, tau2), dtype=complex) + M * sigma2 * np.eye(tau2)


class Phase2Weights(NamedTuple):
    """Phase-II LMMSE weights for one reflection pattern: Psi^-1 Phi^H (tau2, N),
    the posterior covariance (p Phi Psi^-1 Phi^H + C^-1)^-1 (N, N) and its
    trace. Weights of a stack of patterns carry its leading axes."""

    psi_inv_phiH: np.ndarray
    cov: np.ndarray
    mse: float


def _inverse(c: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(c)
    except np.linalg.LinAlgError as exc:
        raise NumericalConditioningError(f"{what} inversion failed: {exc}") from exc


def prior_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of a prior covariance (or a stack of them); a singular prior
    raises NumericalConditioningError."""
    return _inverse(c, "prior covariance")


def phase2_weights(refl: np.ndarray, p: float, psi_inv: np.ndarray, cbi_inv: np.ndarray) -> Phase2Weights:
    """The part of the Phase-II LMMSE estimator that does not depend on the
    received block, given the inverses Psi^-1 of the effective noise
    covariance and C^-1 of the expected Gram: the Phase-III precision with
    G = Phi^H and one repeat, inverted. refl may be a stack (..., N, tau2)
    of patterns."""
    psi_inv_phiH, precision = _precision(refl.conj().swapaxes(-1, -2), 1, p, psi_inv, cbi_inv)
    cov = _inverse(precision, "phase-2 posterior precision")
    return Phase2Weights(psi_inv_phiH, cov, _trace(cov))


def _trace(a: np.ndarray) -> np.ndarray:
    """Real part of the trace of each matrix in a stack, each summed along
    the diagonal as `np.trace` sums one matrix."""
    return np.trace(a, axis1=-2, axis2=-1).real


def phase2_apply(ybar: np.ndarray, w: Phase2Weights, p: float) -> np.ndarray:
    """User-1 reflected-column estimate sqrt(p) Ybar Psi^-1 Phi^H (p Phi Psi^-1 Phi^H + C^-1)^-1."""
    return np.sqrt(p) * ybar @ w.psi_inv_phiH @ w.cov


def psi_phase3(p: float, sigma2: float, beta_k: float, tau1: int, corr_bs_k: np.ndarray) -> np.ndarray:
    """Effective Phase-III noise covariance (M x M) for the slot's scheduled
    user: Phase-I residual colored by the user's BS correlation matrix plus
    AWGN, in the printed three-term form."""
    M = corr_bs_k.shape[0]
    denom = beta_k * p * tau1 + sigma2
    return (
        beta_k * p * sigma2**2 / denom * corr_bs_k
        + ((beta_k * p) ** 2 * tau1 * sigma2 / denom + sigma2) * np.eye(M)
    )


def phase3_lmmse(
    y: np.ndarray, G: np.ndarray, p: float, psi: np.ndarray, clam: np.ndarray
) -> tuple[np.ndarray, float]:
    """LMMSE estimate of a slot's scaling-factor sub-vector and its conditional MSE.

    y may be (M,) for a single observation or (M, R) for R repeats of the same
    (user, element-subset) slot; repeats are fused into one solve.

    lam_hat = sqrt(p) (R p G^H Psi^-1 G + C_lam^-1)^-1 G^H Psi^-1 sum_r y_r,
    mse     = tr((R p G^H Psi^-1 G + C_lam^-1)^-1).
    """
    y = np.asarray(y)
    reps = 1 if y.ndim == 1 else y.shape[1]
    y_sum = y if y.ndim == 1 else y.sum(axis=1)
    psi_inv, clam_inv = _psi3_inverse(psi[None]), prior_inverse(clam[None])
    lam_hat = _phase3_solve(y_sum[None], G[None], reps, p, psi_inv, clam_inv)
    A_inv = _phase3_posterior(G[None], reps, p, psi_inv, clam_inv)
    return lam_hat[0], float(np.trace(A_inv[0]).real)


def _psi3_inverse(psi: np.ndarray) -> np.ndarray:
    return _inverse(psi, "Phase-III noise covariance")


def _psi2_inverse(psi: np.ndarray) -> np.ndarray:
    return _inverse(psi, "Phase-II noise covariance")


def _precision(
    G: np.ndarray, reps: int, p: float, psi_inv: np.ndarray, clam_inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Psi^-1 G and the posterior precision reps p G^H Psi^-1 G + C^-1 of the
    LMMSE estimate of x from reps observations sqrt(p) G x + z, z ~ CN(0, Psi),
    for a stack of systems (leading axes), from the precomputed Psi^-1;
    both are matrix products. Phase II has G = Phi^H, Phase III a slot
    group's reflected columns."""
    psi_inv_G = psi_inv @ G
    return psi_inv_G, reps * p * G.conj().swapaxes(-1, -2) @ psi_inv_G + clam_inv


def _phase3_posterior(
    G: np.ndarray, reps: int, p: float, psi_inv: np.ndarray, clam_inv: np.ndarray
) -> np.ndarray:
    """Posterior covariances (reps p G^H Psi^-1 G + C_lam^-1)^-1 of a stack of
    Phase-III slot groups."""
    return _inverse(_precision(G, reps, p, psi_inv, clam_inv)[1], "phase-3 posterior precision")


def _phase3_solve(
    y_sum: np.ndarray, G: np.ndarray, reps: int, p: float, psi_inv: np.ndarray, clam_inv: np.ndarray
) -> np.ndarray:
    """Stacked scaling-factor estimates (..., S, d) from the repeat-summed
    observations y_sum (..., S, M): the posterior precision is solved
    against, never inverted."""
    psi_inv_G, A = _precision(G, reps, p, psi_inv, clam_inv)
    b = psi_inv_G.conj().swapaxes(-1, -2) @ y_sum[..., None]
    try:
        return np.sqrt(p) * np.linalg.solve(A, b)[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalConditioningError(f"phase-3 LMMSE solve failed: {exc}") from exc


class _Pinv(NamedTuple):
    """SVD factors U^H, s and V of a stack of systems, for least-squares
    solves through the pseudo-inverse."""

    Uh: np.ndarray
    s: np.ndarray
    V: np.ndarray

    @classmethod
    def of(cls, A: np.ndarray) -> "_Pinv":
        """One stacked SVD of A (..., M, d) with relative cutoff; raises
        DegenerateChannelError when any system's numerical rank is below the
        number of unknowns."""
        U, s, Vh = np.linalg.svd(A, full_matrices=False)
        if s.shape[-1] == 0 or np.any(s[..., 0] == 0.0):
            raise DegenerateChannelError("all-zero system matrix")
        rank = int(np.min(np.sum(s > _SVD_RCOND * s[..., :1], axis=-1)))
        if rank < A.shape[-1]:
            raise DegenerateChannelError(
                f"selected channel columns have numerical rank {rank} < {A.shape[-1]}")
        return cls(U.conj().swapaxes(-1, -2), s, Vh.conj().swapaxes(-1, -2))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Least-squares solutions (..., d) for right-hand sides b (..., M)."""
        x = (self.Uh @ b[..., None])[..., 0] / self.s
        return (self.V @ x[..., None])[..., 0]


def phase3_recover_noiseless(
    ybar: np.ndarray,
    dims: SystemDims,
    plan: Phase3Plan,
    g1: np.ndarray,
    p: float,
) -> np.ndarray:
    """Exact recovery of all scaling factors (K-1, N) from the noiseless
    Phase-III block produced by the minimum-length schedule. ybar and g1
    may carry the same leading axes (one trial each); every slot is then one
    stacked SVD solve across them.

    M >= N: one pseudo-inverse solve per user against all N columns.
    M < N: stage-1 slots invert the M selected columns directly; stage-2
    slots first cancel the already-recovered interference, then solve.
    Columns beyond the base cycle repeat it and are re-solved idempotently.
    Each distinct column subset is factored once.
    """
    K, N = dims.K, dims.N
    lam = np.zeros((*ybar.shape[:-2], max(K - 1, 0), N), dtype=complex)
    if K == 1:
        return lam
    sp = np.sqrt(p)
    factors: dict[tuple[int, ...], _Pinv] = {}

    def solve(cols: list[int], b: np.ndarray) -> np.ndarray:
        if tuple(cols) not in factors:
            factors[tuple(cols)] = _Pinv.of(g1[..., :, cols])
        return factors[tuple(cols)].solve(b)

    if plan.degenerate:
        base = K - 1
        for i in range(ybar.shape[-1]):
            k = 2 + (i % base)
            lam[..., k - 2, :] = solve(list(range(N)), ybar[..., :, i] / sp)
        return lam

    base_slots = list(plan.stage1) + list(plan.stage2)
    base = len(base_slots)
    for i in range(ybar.shape[-1]):
        slot = base_slots[i % base]
        if isinstance(slot, SingleUserSlot):
            cols = [n - 1 for n in slot.elements]
            sol = solve(cols, ybar[..., :, i] / sp)
            lam[..., slot.user - 2, cols] = sol
        else:
            on = [n for _, n in slot.targets]
            y_tilde = ybar[..., :, i] / sp
            for k in slot.users:
                for n in on:
                    if (k, n) not in slot.targets:
                        y_tilde = y_tilde - lam[..., k - 2, n - 1, None] * g1[..., :, n - 1]
            sol = solve([n - 1 for n in on], y_tilde)
            for j, (k, n) in enumerate(slot.targets):
                lam[..., k - 2, n - 1] = sol[..., j]
    return lam


def stacked_system_matrix(sched: Schedule, g1: np.ndarray) -> np.ndarray:
    """Stacked Phase-III system matrix (M*tau3, (K-1)*N) whose column for
    unknown (k, n) holds phi_{n,i} * a_{k,i} * g_{1,n} in each slot block;
    full column rank is exactly the perfect-recovery condition."""
    A, phi = sched.pilots, sched.reflections
    K = A.shape[0]
    N, tau3 = phi.shape
    M = g1.shape[0]
    coef = phi.T[:, None, :] * A[1:].T[:, :, None]  # (tau3, K-1, N): phi_{n,i} a_{k,i}
    V = coef[:, None, :, :] * g1[None, :, None, :]  # (tau3, M, K-1, N)
    return V.reshape(M * tau3, (K - 1) * N)


# --------------------------------------------------------------------------
# Second-moment statistics used by the LMMSE estimators
# --------------------------------------------------------------------------


def reflected_gram(
    dims: SystemDims,
    corr: CorrelationSpec,
    loss: PathLossSpec,
    user: int = 1,
    r_var_n_factor: bool = True,
) -> np.ndarray:
    """Exact N x N Gram expectation E[G_k^H G_k] of the given user's (1-based)
    reflected channels G_k = [g_{k,1}..g_{k,N}] = R diag(t_k).

    With R = S_B Z S_I and t_k = S_Uk z (Hermitian roots of the exponential
    correlation matrices), E[R^H R] = r_var tr(C_B) C_I and
    E[conj(t_i) t_j] = beta_IU,k conj(C_Uk)[i, j], so
    E[G_k^H G_k] = r_var M beta_IU,k (C_I o conj(C_Uk)), since tr(C_B) = M.
    r_var is the IRS->BS variance of `draw_channels`.
    """
    N = dims.N
    _, beta_iu, beta_bi = path_loss(loss)
    r_var = beta_bi * (N if r_var_n_factor else 1)
    c_irs = exp_correlation_matrix(corr.irs_reflect, N)
    c_user = exp_correlation_matrix(corr.irs_user[user - 1], N)
    return r_var * dims.M * beta_iu[user - 1] * (c_irs * c_user.conj())


def _median_inplace(a: np.ndarray) -> float:
    """numpy's median of a 1-D float array, reordering `a`: the same
    partition, whose last position holds the maximum or a NaN, and the same
    mean of the middle, but without numpy's masked-array NaN check, which
    imports numpy.ma. A NaN anywhere gives NaN."""
    mid, odd = divmod(a.size, 2)
    a.partition([mid, -1] if odd else [mid - 1, mid, -1])
    return float(a[-1] if np.isnan(a[-1]) else a[mid - 1 + odd:mid + 1].mean())


def estimate_lambda_priors(
    dims: SystemDims,
    corr: CorrelationSpec,
    loss: PathLossSpec,
    slots,
    trials: int = 10_000,
    cap_scale: float = 10.0,
    seed=0,
) -> dict[tuple[int, tuple[int, ...]], np.ndarray]:
    """Trimmed empirical second moments E[lam lam^H] of per-slot sub-vectors.

    `slots` is an iterable of (user, elements) with 1-based indices, user >= 2.
    The scaling-factor distribution is heavy-tailed (its exact second moment
    diverges), so draws with any |lam| above cap_scale x the pooled empirical
    median of |lam| are discarded. Results are symmetrized and ridge-regularized. Identical seeds
    give identical priors. Raises PreconditionError for fewer than 1000
    draws, or when trimming leaves a slot no draw.
    """
    if trials < 1000:
        raise PreconditionError("need at least 1000 draws for a usable prior")
    K, N = dims.K, dims.N
    _, beta_iu, _ = path_loss(loss)
    rng = _as_generator(seed)

    def draw_t(k: int) -> np.ndarray:
        return complex_normal(rng, (trials, N), beta_iu[k]) @ coloring_root(corr.irs_user[k], N).T

    # users are drawn in order and divided straight into their slot, so only
    # user 1's t and the ratios are ever held, never the (trials, K, N) t
    t1 = draw_t(0)
    lam = np.empty((trials, K - 1, N), dtype=complex)
    for k in range(1, K):
        np.divide(draw_t(k), t1, out=lam[:, k - 1])
    del t1

    # |lam| is a temporary, freed before the per-slot copies below
    cap = cap_scale * _median_inplace(np.abs(lam).ravel())

    priors: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    for user, elements in slots:
        key = (int(user), tuple(int(n) for n in elements))
        if key in priors:
            continue
        sub = lam[:, user - 2, [n - 1 for n in elements]]  # (trials, d)
        keep = np.max(np.abs(sub), axis=1) <= cap
        kept = sub[keep]
        if kept.shape[0] == 0:
            raise PreconditionError("trimming removed every draw; cap is too small")
        C = kept.conj().T @ kept / kept.shape[0]
        C = (C + C.conj().T) / 2.0
        d = C.shape[0]
        C = C + (1e-8 * np.trace(C).real / d) * np.eye(d)
        priors[key] = C
    return priors


class SlotClass(NamedTuple):
    """The Phase-III slot groups of an orthogonal plan that share a subset
    size d and a repeat count, stacked along a leading axis of S groups.

    rows       (S,)       each group's row (user - 2) of the scaling-factor array
    elements   (S, d)     0-based element indices
    cols       (S, reps)  the group's slot columns
    psi_inv    (S, M, M)  inverse effective noise covariance of the group's user
    clam_inv   (S, d, d)  inverse prior of the group's scaling factors
    """

    rows: np.ndarray
    elements: np.ndarray
    cols: np.ndarray
    reps: int
    psi_inv: np.ndarray
    clam_inv: np.ndarray

    def columns(self, g1: np.ndarray) -> np.ndarray:
        """The groups' reflected columns G (..., S, M, d) taken from g1 (..., M, N)."""
        return np.ascontiguousarray(g1[..., :, self.elements].swapaxes(-3, -2))


def _slot_groups(plan: OrthogonalPlan) -> dict[tuple[int, tuple[int, ...]], list[int]]:
    groups: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for i, (k, delta) in enumerate(zip(plan.users, plan.elements)):
        groups.setdefault((k, delta), []).append(i)
    return groups


def phase3_slot_classes(
    plan: OrthogonalPlan,
    psi_by_user: dict[int, np.ndarray],
    priors: dict[tuple[int, tuple[int, ...]], np.ndarray],
) -> tuple[SlotClass, ...]:
    """Stack an orthogonal plan's (user, elements) slot groups by subset size
    and repeat count; the cyclic plan has at most two of each. Each user's
    Phase-III noise covariance is inverted once here; a singular one raises
    NumericalConditioningError."""
    psi_inv = {k: _psi3_inverse(psi) for k, psi in psi_by_user.items()}
    members: dict[tuple[int, int], list] = {}
    for (k, delta), cols in _slot_groups(plan).items():
        members.setdefault((len(delta), len(cols)), []).append((k, delta, cols))
    return tuple(
        SlotClass(
            rows=np.array([k - 2 for k, _, _ in group]),
            elements=np.array([[n - 1 for n in delta] for _, delta, _ in group]),
            cols=np.array([cols for _, _, cols in group]),
            reps=reps,
            psi_inv=np.stack([psi_inv[k] for k, _, _ in group]),
            clam_inv=prior_inverse(np.stack([priors[(k, delta)] for k, delta, _ in group])),
        )
        for (_, reps), group in members.items()
    )


def _trace_sum(A_invs: list[np.ndarray]) -> float | np.ndarray:
    """Summed traces of posterior covariances (..., S, d, d), added one group
    at a time, class by class. Leading axes (one trial each) are summed
    separately."""
    total = 0.0
    for A_inv in A_invs:
        for trace in np.moveaxis(_trace(A_inv), -1, 0):
            total = total + trace
    return total


def phase3_lmmse_all_slots(
    ybar: np.ndarray,
    plan: OrthogonalPlan,
    g1: np.ndarray,
    p: float,
    classes: tuple[SlotClass, ...],
) -> np.ndarray:
    """Run the per-slot LMMSE over an orthogonal Phase-III block, fusing
    repeated (user, elements) slots and solving each class of `classes`
    (from `phase3_slot_classes` of the same plan) as one stack, and scatter
    the results into a full (K-1, N) scaling-factor array. ybar and g1 may
    carry the same leading axes (one trial each), which stack with the
    groups. The closed-form MSE is `phase3_conditional_mse`."""
    n_users = max(plan.users) - 1 if plan.users else 0
    lam = np.zeros((*ybar.shape[:-2], n_users, g1.shape[-1]), dtype=complex)
    for c in classes:
        y_sum = ybar[..., :, c.cols].sum(axis=-1).swapaxes(-1, -2)
        lam[..., c.rows[:, None], c.elements] = _phase3_solve(
            y_sum, c.columns(g1), c.reps, p, c.psi_inv, c.clam_inv)
    return lam


def phase3_conditional_mse(g1: np.ndarray, p: float, classes: tuple[SlotClass, ...]) -> float:
    """Closed-form Phase-III MSE conditioned on the given reflected columns,
    summed over the slot groups (repeat-fused) of `classes`, from
    `phase3_slot_classes`. Leading axes of g1 give one MSE each."""
    A_invs = [_phase3_posterior(c.columns(g1), c.reps, p, c.psi_inv, c.clam_inv) for c in classes]
    return _trace_sum(A_invs)
