"""Channel recovery from received pilot blocks.

Exact solvers for the noiseless case follow the closed-form inversions of the
three-phase protocol; the noisy case uses the scalar-coefficient MMSE form for
the direct channels and LMMSE estimators (with interference cancellation) for
the reflected channels and scaling factors. Received blocks are plain (M, tau)
complex arrays whose columns are the per-slot BS observations; the estimators
the harness runs also take a leading axis of trials, one block each.
"""

from __future__ import annotations

import math
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
    PathLossSpec,
    SystemDims,
    _as_generator,
    _scaled_complex,
    coloring_root,
    exp_correlation_matrix,
    path_loss,
)
from .schedule import Phase3Plan, Schedule

_RANK_RCOND = 1e-10
_GRAM_RTOL = 1e-8


def reflected_from_scaling(lam: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Reflected-channel estimates G_k = G_1 diag(lam_k) (K-1, M, N) of users
    2..K from their scaling factors lam (K-1, N) and user 1's columns g1
    (M, N), laid out like `ChannelRealization.g`. Leading axes of both are
    broadcast."""
    return lam[..., :, None, :] * g1[..., None, :, :]


def _received(chan: ChannelRealization, pilots: np.ndarray, refl: np.ndarray | None, p: float) -> np.ndarray:
    """Noiseless received blocks sqrt(p) (H^T A + R (Phi o T^T A)) (..., M, tau)
    of a realization, or of a block of them, for pilots A (K, tau) and
    reflections Phi (N, tau), or one pattern per trial (..., N, tau). Costs
    (K + M) N tau multiply-adds per trial for the reflected part. refl None
    stands for all-zero reflections and gives the direct part alone, equal
    to the full block wherever that is nonzero, since adding +-0 to a nonzero
    entry leaves it unchanged. sqrt(p) scales H and T; a realization whose h
    is the residual H - H_hat gives the block with its direct signal
    cancelled.

    Phi o T^T A is a ufunc call, not `*`: numpy computes `*` on a temporary
    of 256 KiB or more in place with its operands swapped, which rounds a
    complex product differently, so a trial's block would depend on how
    many trials share it."""
    sp = np.sqrt(p)
    direct = (sp * chan.h).swapaxes(-1, -2) @ pilots
    if refl is None:
        return direct
    return direct + chan.R @ np.multiply(refl, (sp * chan.t).swapaxes(-1, -2) @ pilots)


def _check_orthogonal(rows: np.ndarray, tau: int, what: str) -> None:
    gram = rows @ rows.conj().T
    if np.max(np.abs(gram - tau * np.eye(rows.shape[0]))) > _GRAM_RTOL * tau:
        raise PreconditionError(f"{what} rows are not orthogonal with norm {tau}")


def recover_orthogonal(y: np.ndarray, rows: np.ndarray, p: float) -> np.ndarray:
    """Exact recovery of X (..., M, r) from a noiseless block
    Y = sqrt(p) X S (..., M, tau) sent against rows S (r, tau) with
    S @ S^H = tau * I: X = Y @ S^H / (tau * sqrt(p)). Phase I's pilots give
    the direct channels [h_1 .. h_K] as the columns of X, and Phase II's
    DFT pattern, against user 1's all-ones pilots, user 1's reflected
    columns [g_{1,1} .. g_{1,N}]. y may carry leading axes. The caller
    checks the rows' orthogonality once (`build_context` does, per
    context)."""
    return y @ rows.conj().T / (rows.shape[1] * np.sqrt(p))


def phase1_mmse(
    y: np.ndarray, pilots: np.ndarray, p: float, sigma2: float, beta: np.ndarray
) -> np.ndarray:
    """Scalar-coefficient MMSE estimate of the direct channels under noise:
    h_hat_k = beta_k * sqrt(p) / (beta_k * p * tau1 + sigma2) * Y @ conj(a_k).
    Its MSE is `phase1_mse`. The scalar form is exact MMSE for white BS-side
    correlation and is used as printed for correlated channels as well. y
    may carry leading axes; the caller checks the pilots' orthogonality once
    (`build_context` does, per context)."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    denom = beta * p * pilots.shape[1] + sigma2
    return ((y @ pilots.conj().T) * (beta * np.sqrt(p) / denom)).swapaxes(-1, -2)


def phase1_mse(M: int, tau1: int, p: float, sigma2: float, beta: np.ndarray) -> np.ndarray:
    """Closed-form per-user MSE of `phase1_mmse`:
    M * beta_k * sigma2 / (beta_k * p * tau1 + sigma2), for an array beta."""
    return M * beta * sigma2 / (beta * p * tau1 + sigma2)


class Phase2NoiseInverse(NamedTuple):
    """Psi^-1 for the Phase-II noise covariance Psi = c 1 1^T + s I: the
    Phase-I residual re-sent with all-ones pilots, c = p * `phase1_mse`,
    plus AWGN, s = M sigma2. `@` applies it to H (..., tau, d) by
    Sherman-Morrison, (H - c / (s + tau c) 1 (1^T H)) / s, so Psi is never
    formed. c may be a stack (..., 1, 1), one per user."""

    c: float | np.ndarray
    s: float

    @classmethod
    def of(cls, M: int, tau1: int, p: float, sigma2: float, beta) -> "Phase2NoiseInverse":
        """The inverse for direct-channel variance beta, or a stack (..., 1, 1)."""
        return cls(p * phase1_mse(M, tau1, p, sigma2, beta), M * sigma2)

    def __matmul__(self, H: np.ndarray) -> np.ndarray:
        coef = self.c / (self.s + H.shape[-2] * self.c)
        return (H - coef * H.sum(axis=-2, keepdims=True)) / self.s


class LmmseWeights(NamedTuple):
    """The part of an LMMSE estimate of x from reps observations
    sqrt(p) H x + z whose noise sums to covariance reps Psi (as i.i.d.
    z ~ CN(0, Psi) does), that does not depend on the received block:
    Psi^-1 H; the inverse L^-1 of the Cholesky factor of the posterior
    precision P = reps p H^H Psi^-1 H + C^-1 = L L^H, which is lower
    triangular, so the posterior covariance is P^-1 = L^-H L^-1; and its
    trace ||L^-1||_F^2, the closed-form MSE. Phase II has H = Phi^H, Phase
    III a slot group's reflected columns. Weights of a stack of systems
    carry its leading axes. A trial applies P^-1 through the two triangular
    factors (`estimate`); weights built once per context may form it (`cov`)
    and fold it into a filter (`filter`)."""

    psi_inv_H: np.ndarray
    chol_inv: np.ndarray
    mse: float | np.ndarray

    @property
    def cov(self) -> np.ndarray:
        """The posterior covariance P^-1 = L^-H L^-1 (..., d, d)."""
        return self.chol_inv.conj().swapaxes(-1, -2) @ self.chol_inv

    def estimate(self, y: np.ndarray, p: float) -> np.ndarray:
        """The estimates sqrt(p) (y Psi^-1 H) P^-1 (..., r, d) of rows of
        observations y (..., r, m): x = y Psi^-1 H, u = L^-1 x^H, then
        sqrt(p) u^H L^-1, so that only x and u are conjugated, never a
        (d, d) factor or Psi^-1 H."""
        u = self.chol_inv @ (y @ self.psi_inv_H).conj().swapaxes(-1, -2)
        return np.sqrt(p) * (u.conj().swapaxes(-1, -2) @ self.chol_inv)

    def filter(self, p: float) -> np.ndarray:
        """The folded filter sqrt(p) Psi^-1 H P^-1 (..., m, d), which maps a
        block of observations Y (..., M, m) to Y @ filter, the estimate of
        each of its M rows; formed once per context."""
        return np.sqrt(p) * self.psi_inv_H @ self.cov


def _inverse(c: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(c)
    except np.linalg.LinAlgError as exc:
        raise NumericalConditioningError(f"{what} inversion failed: {exc}") from exc


def prior_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of a prior covariance (or a stack of them); a singular prior
    raises NumericalConditioningError."""
    return _inverse(c, "prior covariance")


_TRI_BLOCK = 8


def _tri_inverse_rows(D: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular matrices D (..., b, b) with a
    real positive diagonal, by row substitution: row i of the inverse is
    -(D[i, :i] / D[i, i]) times its rows above, and 1 / D[i, i] on the
    diagonal. Each of the b - 1 steps is one product over the whole stack."""
    b = D.shape[-1]
    recip = 1.0 / np.diagonal(D, axis1=-2, axis2=-1).real
    scaled = D * -recip[..., :, None]
    Y = np.zeros(D.shape, dtype=D.dtype)
    Y.reshape(*D.shape[:-2], b * b)[..., ::b + 1] = recip  # the diagonal, through a view
    for i in range(1, b):
        Y[..., i:i + 1, :i] = scaled[..., i:i + 1, :i] @ Y[..., :i, :i]
    return Y


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse X (..., n, n) of a stack of Cholesky factors L (..., n, n) by
    blocked forward substitution over diagonal blocks of _TRI_BLOCK rows.
    The diagonal blocks are inverted together, as one stack
    (`_tri_inverse_rows`); a shorter last block enters that stack padded
    with the identity, which its inverse keeps. Each later block row I is
    then X[I, :I] = -D_I^-1 (L[I, :I] X[:I, :I])."""
    n = L.shape[-1]
    if n <= _TRI_BLOCK:
        return _tri_inverse_rows(L)
    starts = range(0, n, _TRI_BLOCK)
    D = np.zeros((*L.shape[:-2], len(starts), _TRI_BLOCK * _TRI_BLOCK), dtype=L.dtype)
    D[..., ::_TRI_BLOCK + 1] = 1.0
    D = D.reshape(*D.shape[:-1], _TRI_BLOCK, _TRI_BLOCK)
    for j, s in enumerate(starts):
        e = min(s + _TRI_BLOCK, n)
        D[..., j, :e - s, :e - s] = L[..., s:e, s:e]
    D_inv = _tri_inverse_rows(D)
    X = np.zeros_like(L)
    for j, s in enumerate(starts):
        e = min(s + _TRI_BLOCK, n)
        X[..., s:e, s:e] = D_inv[..., j, :e - s, :e - s]
        if s:
            X[..., s:e, :s] = -X[..., s:e, s:e] @ (L[..., s:e, :s] @ X[..., :s, :s])
    return X


def lmmse_weights(H: np.ndarray, reps: int, p: float, psi_inv: np.ndarray | Phase2NoiseInverse,
                  c_inv: np.ndarray) -> LmmseWeights:
    """LMMSE weights for a stack of systems H (..., m, d), given the inverses
    Psi^-1 of the effective noise covariance, an array or a
    `Phase2NoiseInverse`, and C^-1 of the prior; both are precomputed, so
    only the d x d posterior precision P is factored, P = L L^H, and only L
    is inverted, by forward substitution (`_lower_inverse`). The MSE is
    ||L^-1||_F^2, each system's squares summed as one contiguous row. The
    Phase-II weights of a reflection pattern, or of a stack (..., N, tau2),
    are those of H = Phi^H with one repeat. A precision that is not
    numerically positive definite raises NumericalConditioningError."""
    psi_inv_H = psi_inv @ H
    try:
        chol = np.linalg.cholesky(reps * p * H.conj().swapaxes(-1, -2) @ psi_inv_H + c_inv)
    except np.linalg.LinAlgError as exc:
        raise NumericalConditioningError(f"LMMSE posterior precision factorization failed: {exc}") from exc
    chol_inv = _lower_inverse(chol)
    # the precision and L are freed before the squares are formed, so that
    # a trial block holds at most two (..., d, d) stacks beside Psi^-1 H
    del chol
    *lead, d, _ = chol_inv.shape
    parts = chol_inv.view(np.float64).reshape(*lead, 2 * d * d)
    return LmmseWeights(psi_inv_H, chol_inv, np.sum(np.square(parts), axis=-1))


def psi_phase3(p: float, sigma2: float, beta_k: float, tau1: int, corr_bs_k: np.ndarray,
               reps: int = 1) -> np.ndarray:
    """Effective Phase-III noise covariance Psi_3(reps) (M x M) of a slot
    group sent reps times by its user, whose direct channel
    h_k ~ CN(0, beta_k C_B) is cancelled by its `phase1_mmse` estimate:
    reps p Cov(e_k) + sigma2 I. The residual e_k = h_k - h_hat_k is the same
    in every repeat, so the repeat-summed noise has covariance
    reps^2 p Cov(e_k) + reps sigma2 I = reps Psi_3(reps). Cov(e_k) =
    beta_k sigma2 / d^2 (sigma2 C_B + beta_k p tau1 I), d = beta_k p tau1 +
    sigma2, has trace `phase1_mse`; so tr(Psi_3(reps)) = reps p `phase1_mse`
    + M sigma2."""
    M = corr_bs_k.shape[0]
    denom = beta_k * p * tau1 + sigma2
    cov_e = (phase1_mse(1, tau1, p, sigma2, beta_k) / denom
             * (sigma2 * corr_bs_k + beta_k * p * tau1 * np.eye(M)))
    return reps * p * cov_e + sigma2 * np.eye(M)


class _LeftInverse(NamedTuple):
    """A stack of full-column-rank systems A (..., M, d), M >= d, and a left
    inverse L (..., d, M) of each, for solves with one step of iterative
    refinement."""

    A: np.ndarray
    L: np.ndarray

    @classmethod
    def of(cls, A: np.ndarray) -> "_LeftInverse":
        """L = A^-1 for square systems, R^-1 Q^H from A = QR for tall ones.
        Raises DegenerateChannelError when A is singular to working precision
        or a condition estimate ||A||_F ||L||_F reaches 1 / _RANK_RCOND in any
        system. The estimate lies between the 2-norm condition number kappa
        and d kappa, so the test rejects every system whose numerical rank at
        a relative singular-value cutoff of _RANK_RCOND is below d
        (kappa >= 1 / _RANK_RCOND), and may also reject systems up to a
        factor d better conditioned than that."""
        try:
            if A.shape[-2] == A.shape[-1]:
                L = np.linalg.inv(A)
            else:
                Q, R = np.linalg.qr(A)
                L = np.linalg.inv(R) @ Q.conj().swapaxes(-1, -2)
        except np.linalg.LinAlgError as exc:
            raise DegenerateChannelError(f"selected channel columns are singular: {exc}") from exc
        cond = np.linalg.norm(A, axis=(-2, -1)) * np.linalg.norm(L, axis=(-2, -1))
        if not np.all(cond < 1.0 / _RANK_RCOND):
            raise DegenerateChannelError(
                f"selected channel columns have condition estimate {np.max(cond):.3g} "
                f">= {1.0 / _RANK_RCOND:.3g}")
        return cls(A, L)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solutions (..., d) for right-hand sides b (..., M): x = L b, then
        one refinement step x += L (b - A x). Least squares for tall systems."""
        x = (self.L @ b[..., None])[..., 0]
        r = b - (self.A @ x[..., None])[..., 0]
        return x + (self.L @ r[..., None])[..., 0]


def phase3_recover_noiseless(
    ybar: np.ndarray,
    plan: Phase3Plan,
    g1: np.ndarray,
    p: float,
) -> np.ndarray:
    """Exact recovery of all scaling factors (K-1, N) from the noiseless
    Phase-III block produced by the minimum-length schedule. ybar and g1
    may carry the same leading axes (one trial each); every slot is then one
    stacked solve across them.

    Each slot first cancels the scaling factors of the pairs it switches on
    that are already recovered (none in a slot of one user's primary
    elements), then solves for its targets over its on-elements' columns
    (all N of them when M >= N). Slot i of the base cycle reads column i
    once; columns past the cycle repeat its equations and are not read, and
    a shorter block raises PreconditionError. With a single user there is
    nothing to recover. Each distinct column subset gets one stacked left inverse
    (`_LeftInverse`): its inverse when square, R^-1 Q^H when tall. Each
    solve applies it with one step of iterative refinement, and a condition
    estimate over the stack raises DegenerateChannelError for columns that
    are numerically rank-deficient. The subset is copied C-ordered, since
    the refinement's product A x rounds by layout and the layout of a
    fancy-indexed subset is numpy's choice.
    """
    K, N = plan.dims.K, plan.dims.N
    if ybar.shape[-1] < len(plan.slots):
        raise PreconditionError(f"{ybar.shape[-1]} Phase-III columns < {len(plan.slots)} base-cycle slots")
    lam = np.zeros((*ybar.shape[:-2], K - 1, N), dtype=complex)
    flat = lam.reshape(*lam.shape[:-2], -1)  # a view, one entry per (user, element)
    sp = np.sqrt(p)
    factors: dict[tuple[int, ...], _LeftInverse] = {}
    for i, slot in enumerate(plan.slots):
        y_tilde = ybar[..., :, i] / sp
        for k, n in slot.interference:
            y_tilde = y_tilde - lam[..., k - 2, n - 1, None] * g1[..., :, n - 1]
        if slot.elements not in factors:
            cols = [n - 1 for n in slot.elements]
            factors[slot.elements] = _LeftInverse.of(np.ascontiguousarray(g1[..., :, cols]))
        flat[..., [(k - 2) * N + n - 1 for k, n in slot.targets]] = factors[slot.elements].solve(y_tilde)
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
    """numpy's median of a 1-D float array, reordering `a`, without numpy's
    masked-array NaN check, which imports numpy.ma. A NaN anywhere gives NaN.

    It partitions at one kth only. numpy's median partitions at
    [mid - 1, mid, -1], and on numpy 2.4 that takes about six times as long
    as `partition(mid)`: 47 against 7 ms for the 2.24 M ratios of the
    default config. After `partition(mid)`, a[:mid] holds the smaller half,
    so its maximum is the lower middle of an even size, and a NaN, which
    sorts last, lies in a[mid:]. The two middle values are averaged by the
    same 2-element mean as numpy's."""
    mid, odd = divmod(a.size, 2)
    a.partition(mid)
    if np.isnan(a[mid:].max()):
        return math.nan
    return float(a[mid] if odd else np.mean((a[:mid].max(), a[mid])))


def _slot_columns(elements: tuple[int, ...]) -> slice | list[int]:
    """Index of nonempty 1-based elements: a slice, which takes a view, when
    they are one run of consecutive elements, else a list of 0-based
    indices, which takes a copy."""
    lo, hi = elements[0], elements[-1]
    if elements == tuple(range(lo, hi + 1)):
        return slice(lo - 1, hi)
    return [n - 1 for n in elements]


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
    draws, for a slot whose user lies outside 2..K or whose elements are
    empty or lie outside 1..N, or when trimming leaves a slot no draw.

    The ratios are held user-major, (K-1, trials, N). Each user's draw is
    coloured straight into its own contiguous row and multiplied there in
    place by 1/t_1, formed once in place of user 1's t. So only that
    reciprocal and the ratios are ever held, never the (trials, K, N) t nor
    a coloured draw beside its row.

    Each slot's per-draw maximum |lam| is read from the pooled |lam| before
    the median reorders it. A slot whose elements form one consecutive run
    takes its columns as a view of its user's row; any other subset copies
    them.
    """
    if trials < 1000:
        raise PreconditionError("need at least 1000 draws for a usable prior")
    K, N = dims.K, dims.N
    keys = dict.fromkeys((int(user), tuple(int(n) for n in elements)) for user, elements in slots)
    for user, elements in keys:
        if not (2 <= user <= K and elements and 1 <= min(elements) and max(elements) <= N):
            raise PreconditionError(f"slot {(user, elements)} needs a user in 2..{K} "
                                    f"and a nonempty subset of elements 1..{N}")
    _, beta_iu, _ = path_loss(loss)
    rng = _as_generator(seed)

    # One set of buffers takes every user's normals, drawn as
    # `complex_normal` draws them. Fresh ones per user would each be paged in
    # again, and at 1000 draws they stayed in the heap and raised peak RSS.
    normals = np.empty((2, trials, N))
    z = np.empty((trials, N), dtype=complex)

    def draw_t(k: int, out: np.ndarray | None = None) -> np.ndarray:
        for part in normals:
            rng.standard_normal(out=part)
        _scaled_complex(*normals, beta_iu[k], out=z)
        return np.matmul(z, coloring_root(corr.irs_user[k], N).T, out=out)

    r1 = draw_t(0)
    np.divide(1.0, r1, out=r1)  # user 1's t, replaced by its reciprocal
    lam = np.empty((K - 1, trials, N), dtype=complex)
    for k in range(1, K):
        draw_t(k, out=lam[k - 1])
        lam[k - 1] *= r1
    del r1, normals, z

    # |lam| is a temporary, freed before the per-slot Grams below; the
    # pooled median does not depend on the order of its elements
    mag = np.abs(lam)
    cols = {key: _slot_columns(key[1]) for key in keys}
    rowmax = {key: np.max(mag[key[0] - 2][:, c], axis=1) for key, c in cols.items()}
    cap = cap_scale * _median_inplace(mag.ravel())
    del mag

    priors: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    for key, c in cols.items():
        kept = lam[key[0] - 2][:, c][rowmax[key] <= cap]  # (kept draws, d)
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
    psi_inv    (S, M, M)  inverse effective noise covariance of the group's user at reps
    clam_inv   (S, d, d)  inverse prior of the group's scaling factors
    """

    rows: np.ndarray
    elements: np.ndarray
    cols: np.ndarray
    reps: int
    psi_inv: np.ndarray
    clam_inv: np.ndarray

    def columns(self, g1: np.ndarray) -> np.ndarray:
        """The groups' reflected columns G (..., S, M, d) taken from g1 (..., M, N);
        where every group takes every element in order, g1 broadcast, (..., 1, M, N)."""
        N = g1.shape[-1]
        if self.elements.shape[-1] == N and np.all(self.elements == np.arange(N)):
            return g1[..., None, :, :]
        return np.ascontiguousarray(g1[..., :, self.elements].swapaxes(-3, -2))


def phase3_slot_classes(
    plan: Phase3Plan,
    tau3: int,
    psi: dict[tuple[int, int], np.ndarray],
    priors: dict[tuple[int, tuple[int, ...]], np.ndarray],
) -> tuple[SlotClass, ...]:
    """Stack the base slots of an orthogonal plan, one user each, by subset
    size and repeat count in a tau3-slot schedule (`Phase3Plan.columns`);
    the cyclic plan has at most two of each. `psi` holds the Phase-III noise
    covariance of each (user, repeat count) the plan has, `psi_phase3` at
    those reps; each is inverted once here, and a singular one raises
    NumericalConditioningError."""
    psi_inv = {key: _inverse(c, "Phase-III noise covariance") for key, c in psi.items()}
    members: dict[tuple[int, int], list] = {}
    for slot, cols in zip(plan.slots, plan.columns(tau3)):
        (k,), delta = slot.users, slot.elements
        members.setdefault((len(delta), len(cols)), []).append((k, delta, cols))
    return tuple(
        SlotClass(
            rows=np.array([k - 2 for k, _, _ in group]),
            elements=np.array([[n - 1 for n in delta] for _, delta, _ in group]),
            cols=np.array([cols for _, _, cols in group]),
            reps=reps,
            psi_inv=np.stack([psi_inv[k, reps] for k, _, _ in group]),
            clam_inv=prior_inverse(np.stack([priors[(k, delta)] for k, delta, _ in group])),
        )
        for (_, reps), group in members.items()
    )


def phase3_lmmse_all_slots(
    ybar: np.ndarray,
    plan: Phase3Plan,
    g1: np.ndarray,
    p: float,
    classes: tuple[SlotClass, ...],
) -> tuple[np.ndarray, float | np.ndarray]:
    """Run the per-slot LMMSE over an orthogonal Phase-III block, fusing
    each base slot's repeats and weighting each class of `classes` (from
    `phase3_slot_classes` of the same plan and block length) as one stack.
    Returns the scaling factors scattered into a full (K-1, N) array and
    the closed-form MSE conditioned on the columns g1 the estimate used: the
    posterior traces, added one group at a time, class by class. ybar and
    g1 may carry the same leading axes (one trial each), which stack with
    the groups and give one MSE each. A group's repeat sum y enters
    `LmmseWeights.estimate` as the row y^H, and its estimate
    sqrt(p) P^-1 G^H Psi_3^-1 y is the conjugate transpose of the result,
    since P and Psi_3 are Hermitian."""
    lam = np.zeros((*ybar.shape[:-2], plan.dims.K - 1, g1.shape[-1]), dtype=complex)
    mse = 0.0
    for c in classes:
        w = lmmse_weights(c.columns(g1), c.reps, p, c.psi_inv, c.clam_inv)
        y_sum = ybar[..., :, c.cols].sum(axis=-1).swapaxes(-1, -2)
        row = w.estimate(y_sum.conj()[..., None, :], p)
        lam[..., c.rows[:, None], c.elements] = row[..., 0, :].conj()
        for trace in np.moveaxis(w.mse, -1, 0):
            mse = mse + trace
    return lam, mse
