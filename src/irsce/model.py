"""Correlated Rayleigh channel synthesis for an IRS-assisted multiuser uplink.

Channels come in three flavours: direct user->BS vectors h_k (length M),
the IRS->BS matrix R with columns r_n (M x N), and user->IRS scalars t_{k,n}.
Each is an i.i.d. complex Gaussian coloured on its receive/transmit side by
the square root of an exponential correlation matrix. Derived quantities:
the composite reflected channels g_{k,n} = t_{k,n} * r_n and the per-element
scaling factors lam_{k,n} = t_{k,n} / t_{1,n} that tie every user's reflected
channels to user 1's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .errors import InvalidCorrelationError, InvalidGeometryError, InvalidMatrixError


def _as_generator(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, or a ready Generator.

    Integer seeds are fed to the counter-based Philox generator so that
    per-trial streams are reproducible and cheap to split.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.Philox(seed))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def _scaled_complex(re: np.ndarray, im: np.ndarray, var: float | np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """sqrt(var / 2) * (re + 1j * im), built in one complex array, `out` if
    given.

    A real scale times a complex number rounds to the two real products, so
    this is bit-identical to that expression, without its three temporaries."""
    scale = np.sqrt(var / 2.0)
    out = np.empty(re.shape, dtype=complex) if out is None else out
    np.multiply(re, scale, out=out.real)
    np.multiply(im, scale, out=out.imag)
    return out


def complex_normal(rng: np.random.Generator, shape, var: float) -> np.ndarray:
    """Circularly-symmetric complex Gaussian with per-entry variance `var`."""
    return _scaled_complex(rng.standard_normal(shape), rng.standard_normal(shape), var)


class _NormalSlices:
    """Complex Gaussians cut from one array of standard normals z (..., n),
    in the order a sequence of `complex_normal` calls on a stream would
    draw them: each `take` consumes the real parts, then the imaginary
    parts, of one array. A leading axis of z holds independent draws
    (one per trial) that are sliced alike."""

    def __init__(self, z: np.ndarray):
        self.z, self.lead, self.pos = z, z.shape[:-1], 0

    def take(self, shape: tuple[int, ...], var: float | np.ndarray) -> np.ndarray:
        """One array (..., *shape) of variance `var`, or, for variances
        var (c,), c arrays one after another, (..., c, *shape)."""
        n, c, at = prod(shape), np.size(var), self.pos
        self.pos += 2 * n * c
        z = self.z[..., at:at + 2 * n * c].reshape(*self.lead, c, 2, n)
        out = _scaled_complex(z[..., 0, :], z[..., 1, :], np.reshape(var, (c, 1)))
        return out.reshape(*self.lead, *np.shape(var), *shape)


@dataclass(frozen=True)
class SystemDims:
    """Problem size: K users, N IRS elements, M BS antennas."""

    K: int
    N: int
    M: int

    def __post_init__(self):
        for name in ("K", "N", "M"):
            v = getattr(self, name)
            if int(v) != v or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class CorrelationSpec:
    """Exponential-correlation scalars, each with modulus strictly below 1.

    bs_direct[k]   receive side of the direct channel h_k at the BS
    bs_reflect     receive side of the IRS->BS matrix at the BS
    irs_reflect    transmit side of the IRS->BS matrix at the IRS
    irs_user[k]    receive side of the user->IRS channel t_k at the IRS
    """

    bs_direct: np.ndarray
    bs_reflect: complex
    irs_reflect: complex
    irs_user: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bs_direct", np.atleast_1d(np.asarray(self.bs_direct, dtype=complex)))
        object.__setattr__(self, "irs_user", np.atleast_1d(np.asarray(self.irs_user, dtype=complex)))
        for c in (*self.bs_direct, self.bs_reflect, self.irs_reflect, *self.irs_user):
            if abs(complex(c)) >= 1.0:
                raise InvalidCorrelationError(f"correlation scalar {c!r} must have |c| < 1")

    @classmethod
    def uniform(cls, c: complex, K: int) -> "CorrelationSpec":
        """Same scalar on every link of every user."""
        return cls(np.full(K, c, dtype=complex), c, c, np.full(K, c, dtype=complex))


@dataclass(frozen=True)
class PathLossSpec:
    """Distance/exponent geometry for the three link types.

    Path loss in linear scale is beta0 * (d / d0) ** (-alpha) with beta0
    given in dB at reference distance d0.
    """

    beta0_db: float
    d0: float
    d_bs_user: np.ndarray
    d_irs_user: np.ndarray
    d_bs_irs: float
    alpha_direct: float
    alpha_irs_user: float
    alpha_bs_irs: float

    def __post_init__(self):
        object.__setattr__(self, "d_bs_user", np.atleast_1d(np.asarray(self.d_bs_user, dtype=float)))
        object.__setattr__(self, "d_irs_user", np.atleast_1d(np.asarray(self.d_irs_user, dtype=float)))
        for d in (*self.d_bs_user, *self.d_irs_user, self.d_bs_irs, self.d0):
            if not d > 0:
                raise InvalidGeometryError(f"distances must be positive, got {d!r}")
        for a in (self.alpha_direct, self.alpha_irs_user, self.alpha_bs_irs):
            if not a > 0:
                raise InvalidGeometryError(f"path-loss exponents must be positive, got {a!r}")

    @classmethod
    def unit(cls, K: int) -> "PathLossSpec":
        """All path losses exactly 1 (convenient for unit-variance tests)."""
        return cls(0.0, 1.0, np.ones(K), np.ones(K), 1.0, 1.0, 1.0, 1.0)


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power and receiver noise power, both in linear watts."""

    p: float
    sigma2: float

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError(f"transmit power must be positive, got {self.p!r}")
        if not self.sigma2 > 0:
            raise ValueError(f"noise power must be positive, got {self.sigma2!r}")

    @classmethod
    def from_dbm(cls, power_dbm: float, bandwidth_hz: float, noise_psd_dbm_hz: float) -> "LinkBudget":
        p = 10.0 ** ((power_dbm - 30.0) / 10.0)
        sigma2 = 10.0 ** ((noise_psd_dbm_hz - 30.0) / 10.0) * bandwidth_hz
        return cls(p, sigma2)


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of every physical channel plus the derived quantities. A
    block of draws carries one more leading axis on every field.

    h    (K, M)     direct channels, h[k] = h_{k+1}
    R    (M, N)     IRS->BS matrix, columns r_n
    t    (K, N)     user->IRS channels
    g    (K, M, N)  reflected channels G_k = R diag(t_k), g[k-1, :, n-1] = t_{k,n} * r_n
    lam  (K-1, N)   scaling factors lam[k-2, n-1] = t_{k,n} / t_{1,n}, users k >= 2
    """

    h: np.ndarray
    R: np.ndarray
    t: np.ndarray
    g: np.ndarray
    lam: np.ndarray

    @property
    def g1(self) -> np.ndarray:
        """User-1 reflected channels G_1 = [g_{1,1} .. g_{1,N}] (M, N), a view of g."""
        return self.g[..., 0, :, :]

    @property
    def g_power(self) -> np.ndarray:
        """Each user's reflected-channel power sum_{n,m} |g_{k,n,m}|^2 (..., K),
        formed from the factors as sum_n |t_{k,n}|^2 ||r_n||^2, without g."""
        r_sq = np.sum(np.square(self.R.real) + np.square(self.R.imag), axis=-2)
        return np.sum((np.square(self.t.real) + np.square(self.t.imag)) * r_sq[..., None, :], axis=-1)


def exp_correlation_matrix(c: complex, n: int) -> np.ndarray:
    """Exponential correlation matrix: entry (i, j) = c**(i-j) for i >= j,
    conjugate-symmetric above the diagonal. Hermitian positive definite for
    |c| < 1."""
    c = complex(c)
    if abs(c) >= 1.0:
        raise InvalidCorrelationError(f"|c| must be < 1, got {abs(c)}")
    if n < 1:
        raise ValueError("dimension must be >= 1")
    d = np.arange(n)[:, None] - np.arange(n)[None, :]
    lower = np.power(c, np.clip(d, 0, None))
    upper = np.power(np.conj(c), np.clip(-d, 0, None))
    return np.where(d >= 0, lower, upper)


def hermitian_sqrt(C: np.ndarray) -> np.ndarray:
    """Principal PSD square root of a Hermitian PSD matrix via eigendecomposition.

    Eigenvalues in [-1e-12, 0] (scaled) are clamped to zero; anything more
    negative, or a non-Hermitian input, raises InvalidMatrixError.
    """
    C = np.asarray(C, dtype=complex)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {C.shape}")
    scale = max(1.0, float(np.max(np.abs(C))))
    if np.max(np.abs(C - C.conj().T)) > 1e-10 * scale:
        raise InvalidMatrixError("matrix is not Hermitian within tolerance 1e-10")
    w, V = np.linalg.eigh((C + C.conj().T) / 2.0)
    tol = 1e-12 * max(1.0, float(w[-1]))
    if w[0] < -tol:
        raise InvalidMatrixError(f"matrix has negative eigenvalue {w[0]}")
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.conj().T


@lru_cache(maxsize=256)
def _coloring_root_cached(c: complex, n: int) -> np.ndarray:
    S = hermitian_sqrt(exp_correlation_matrix(c, n))
    S.setflags(write=False)
    return S


def coloring_root(c: complex, n: int) -> np.ndarray:
    """Square root of the n-dim exponential correlation matrix (read-only, cached)."""
    return _coloring_root_cached(complex(c), int(n))


@lru_cache(maxsize=64)
def _coloring_roots(cs: tuple[complex, ...], n: int) -> np.ndarray:
    """`coloring_root` of each scalar, stacked (len(cs), n, n) (read-only, cached)."""
    S = np.stack([coloring_root(c, n) for c in cs])
    S.setflags(write=False)
    return S


def path_loss(loss: PathLossSpec) -> tuple[np.ndarray, np.ndarray, float]:
    """Linear-scale path losses (beta_bs_user per k, beta_irs_user per k, beta_bs_irs)."""
    beta0 = 10.0 ** (loss.beta0_db / 10.0)
    beta_bu = beta0 * (loss.d_bs_user / loss.d0) ** (-loss.alpha_direct)
    beta_iu = beta0 * (loss.d_irs_user / loss.d0) ** (-loss.alpha_irs_user)
    beta_bi = beta0 * (loss.d_bs_irs / loss.d0) ** (-loss.alpha_bs_irs)
    return beta_bu, beta_iu, float(beta_bi)


def _channel_normals(dims: SystemDims) -> int:
    """Standard normals one channel realization consumes."""
    return 2 * (dims.K * dims.M + dims.M * dims.N + dims.K * dims.N)


def draw_channels(
    dims: SystemDims,
    corr: CorrelationSpec,
    loss: PathLossSpec,
    rng_seed,
    r_var_n_factor: bool = True,
) -> ChannelRealization:
    """Draw one complete channel realization.

    The IRS->BS i.i.d. component has per-entry variance beta_bs_irs * N
    (the explicit N factor of the statistical model); set
    `r_var_n_factor=False` to drop the factor for sensitivity studies.
    Identical (specs, seed) produce a bit-identical realization.
    """
    if corr.bs_direct.shape[0] != dims.K or corr.irs_user.shape[0] != dims.K:
        raise ValueError("per-user correlation arrays must have length K")
    if loss.d_bs_user.shape[0] != dims.K or loss.d_irs_user.shape[0] != dims.K:
        raise ValueError("per-user distance arrays must have length K")
    z = _as_generator(rng_seed).standard_normal(_channel_normals(dims))
    return _channels_from_normals(dims, corr, loss, z, r_var_n_factor)


def _channels_from_normals(
    dims: SystemDims,
    corr: CorrelationSpec,
    loss: PathLossSpec,
    z: np.ndarray,
    r_var_n_factor: bool = True,
) -> ChannelRealization:
    """Channel realizations from standard normals z (..., _channel_normals(dims)),
    one per leading index. The normals are used in the order h_1..h_K, R,
    t_1..t_K. The users' colourings are one stacked matrix product per draw."""
    K, N, M = dims.K, dims.N, dims.M
    normals = _NormalSlices(z)
    beta_bu, beta_iu, beta_bi = path_loss(loss)

    h = (_coloring_roots(tuple(corr.bs_direct), M) @ normals.take((M, 1), beta_bu))[..., 0]
    r_var = beta_bi * (N if r_var_n_factor else 1)
    R = coloring_root(corr.bs_reflect, M) @ normals.take((M, N), r_var) @ coloring_root(corr.irs_reflect, N)
    t = (_coloring_roots(tuple(corr.irs_user), N) @ normals.take((N, 1), beta_iu))[..., 0]

    g = t[..., :, None, :] * R[..., None, :, :]  # G_k = R diag(t_k)
    lam = t[..., 1:, :] / t[..., :1, :]
    return ChannelRealization(h=h, R=R, t=t, g=g, lam=lam)
