from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsce import (
    ChannelModel,
    ChannelRealization,
    CorrelationSpec,
    LinkBudget,
    PathLossSpec,
    SystemDims,
    exp_correlation_matrix,
    hermitian_sqrt,
    path_loss,
    substream,
)
from irsce.errors import InvalidCorrelationError, InvalidGeometryError, InvalidMatrixError
from irsce.model import _channel_normals


class TestExpCorrelationMatrix:
    def test_zero_correlation_is_identity(self):
        assert np.array_equal(exp_correlation_matrix(0.0, 3), np.eye(3))

    def test_half_correlation_two_dim(self):
        # direct evaluation of c**(i-j)
        expected = np.array([[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(exp_correlation_matrix(0.5, 2), expected, rtol=0, atol=0)

    def test_high_correlation_positive_definite(self):
        w = np.linalg.eigvalsh(exp_correlation_matrix(0.9, 4))
        assert np.all(w > 0)

    def test_complex_scalar_hermitian_pd(self):
        C = exp_correlation_matrix(0.4 + 0.3j, 5)
        np.testing.assert_allclose(C, C.conj().T)
        assert np.all(np.linalg.eigvalsh(C) > 0)

    @pytest.mark.parametrize("c", [1.0, -1.0, 1.2, 0.8 + 0.7j])
    def test_modulus_at_least_one_rejected(self, c):
        with pytest.raises(InvalidCorrelationError):
            exp_correlation_matrix(c, 3)


class TestHermitianSqrt:
    def test_identity(self):
        np.testing.assert_allclose(hermitian_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_random_psd_reconstruction(self):
        rng = substream(11)
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        C = A @ A.conj().T
        S = hermitian_sqrt(C)
        np.testing.assert_allclose(S, S.conj().T, atol=1e-12)
        assert np.linalg.norm(S @ S - C) <= 1e-10 * np.linalg.norm(C)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidMatrixError):
            hermitian_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidMatrixError):
            hermitian_sqrt(np.diag([1.0, -0.1]))

    def test_roundoff_negative_clamped(self):
        S = hermitian_sqrt(np.diag([1.0, -1e-13]))
        np.testing.assert_allclose(S, np.diag([1.0, 0.0]), atol=1e-12)


class TestPathLoss:
    def test_reference_distance(self):
        loss = PathLossSpec(-20.0, 1.0, [1.0], [1.0], 1.0, 4.2, 2.1, 2.2)
        bu, iu, bi = path_loss(loss)
        np.testing.assert_allclose([bu[0], iu[0], bi], [1e-2] * 3)

    def test_bs_irs_spot_value(self):
        loss = PathLossSpec(-20.0, 1.0, [105.0], [10.0], 100.0, 4.2, 2.1, 2.2)
        _, _, bi = path_loss(loss)
        np.testing.assert_allclose(bi, 1e-2 * 100.0 ** (-2.2), rtol=1e-12)

    def test_doubling_distance_alpha_two(self):
        near = PathLossSpec(0.0, 1.0, [10.0], [10.0], 10.0, 2.0, 2.0, 2.0)
        far = PathLossSpec(0.0, 1.0, [20.0], [20.0], 20.0, 2.0, 2.0, 2.0)
        np.testing.assert_allclose(path_loss(near)[0], 4.0 * path_loss(far)[0], rtol=1e-12)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(InvalidGeometryError):
            PathLossSpec(0.0, 1.0, [0.0], [1.0], 1.0, 2.0, 2.0, 2.0)


class TestLinkBudget:
    def test_dbm_conversion(self):
        budget = LinkBudget.from_dbm(33.0, 1e6, -169.0)
        np.testing.assert_allclose(budget.p, 10 ** 0.3, rtol=1e-12)
        np.testing.assert_allclose(budget.sigma2, 10 ** (-19.9) * 1e6, rtol=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            LinkBudget(0.0, 1.0)


def draws_of(dims, corr, loss, seed, draws, r_var_n_factor=True) -> ChannelRealization:
    """`draws` successive `ChannelModel.draw` draws from one `substream(seed)`,
    as one stacked realization: the same normals from one `standard_normal`
    call. Its first rows are checked against `ChannelModel.draw` itself."""
    model = ChannelModel.of(dims, corr, loss, r_var_n_factor)
    z = substream(seed).standard_normal((draws, _channel_normals(dims)))
    chans = model.channels(z)
    rng = substream(seed)
    for i in range(3):
        one = model.draw(rng)
        for field in ("h", "R", "t", "g", "lam"):
            assert np.array_equal(getattr(one, field), getattr(chans, field)[i]), field
    return chans


class TestDrawChannels:
    dims = SystemDims(3, 4, 2)
    corr = CorrelationSpec.uniform(0.4, 3)
    loss = PathLossSpec.unit(3)

    def test_scaling_identity_exact(self):
        chan = ChannelModel.of(self.dims, self.corr, self.loss).draw(5)
        for k in range(2, self.dims.K + 1):
            for n in range(1, self.dims.N + 1):
                lhs = chan.lam[k - 2, n - 1] * chan.g[0, :, n - 1]
                np.testing.assert_allclose(lhs, chan.g[k - 1, :, n - 1], rtol=1e-12)

    def test_composite_definition(self):
        chan = ChannelModel.of(self.dims, self.corr, self.loss).draw(6)
        for k in range(self.dims.K):
            for n in range(self.dims.N):
                np.testing.assert_allclose(chan.g[k, :, n], chan.t[k, n] * chan.R[:, n], rtol=1e-14)

    def test_determinism(self):
        a = ChannelModel.of(self.dims, self.corr, self.loss).draw(123)
        b = ChannelModel.of(self.dims, self.corr, self.loss).draw(123)
        for field in ("h", "R", "t", "g", "lam"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_direct_channel_sample_covariance_white(self):
        # Monte Carlo covariance oracle: no correlation, unit path loss
        dims = SystemDims(1, 1, 4)
        corr = CorrelationSpec.uniform(0.0, 1)
        loss = PathLossSpec.unit(1)
        draws = 100_000
        h = draws_of(dims, corr, loss, 77, draws).h[:, 0]
        cov = h.T @ h.conj() / draws
        assert np.max(np.abs(cov - np.eye(4))) < 0.03

    def test_direct_channel_coloring(self):
        # sample covariance converges to beta * exp_correlation_matrix(c, M)
        dims = SystemDims(1, 1, 4)
        c = 0.6
        corr = CorrelationSpec.uniform(c, 1)
        loss = PathLossSpec.unit(1)
        draws = 100_000
        h = draws_of(dims, corr, loss, 78, draws).h[:, 0]
        cov = h.T @ h.conj() / draws
        expected = exp_correlation_matrix(c, 4)
        assert np.max(np.abs(cov - expected) / np.abs(expected)) < 0.03

    def test_pathloss_scales_variance(self):
        dims = SystemDims(1, 1, 2)
        corr = CorrelationSpec.uniform(0.0, 1)
        base = PathLossSpec.unit(1)
        # beta scaled by 4 via a distance change at alpha = 2
        scaled = PathLossSpec(0.0, 1.0, [0.5], [1.0], 1.0, 2.0, 2.0, 2.0)
        draws = 20_000
        # both from substream(79), as two generators of that seed drew them
        v1 = np.mean(np.abs(draws_of(dims, corr, base, 79, draws).h) ** 2)
        v2 = np.mean(np.abs(draws_of(dims, corr, scaled, 79, draws).h) ** 2)
        assert abs(v2 / v1 - 4.0) < 4.0 * 0.03

    def test_reflect_variance_n_factor(self):
        dims = SystemDims(1, 8, 2)
        corr = CorrelationSpec.uniform(0.0, 1)
        loss = PathLossSpec.unit(1)
        draws = 5_000
        von = np.mean(np.abs(draws_of(dims, corr, loss, 80, draws).R) ** 2)
        voff = np.mean(np.abs(draws_of(dims, corr, loss, 80, draws, r_var_n_factor=False).R) ** 2)
        assert abs(von - dims.N) < dims.N * 0.05
        assert abs(voff - 1.0) < 0.05

    def test_any_m_columns_independent(self):
        # smallest singular value of a random M-column subset stays away from 0
        dims = SystemDims(1, 6, 3)
        corr = CorrelationSpec.uniform(0.3, 1)
        loss = PathLossSpec.unit(1)
        rng = substream(81)
        pick = substream(82)
        for _ in range(1000):
            g1 = ChannelModel.of(dims, corr, loss).draw(rng).g1
            cols = pick.choice(dims.N, size=dims.M, replace=False)
            s = np.linalg.svd(g1[:, cols], compute_uv=False)
            assert s[-1] > 1e-9 * s[0]
            assert s[-1] > 0.0

    @pytest.mark.parametrize("length", [2, 4])
    @pytest.mark.parametrize("spec,field,what", [
        ("corr", "bs_direct", "correlation"), ("corr", "irs_user", "correlation"),
        ("loss", "d_bs_user", "distance"), ("loss", "d_irs_user", "distance"),
    ])
    def test_per_user_array_not_of_length_k_rejected(self, spec, field, what, length):
        # K = 3; one per-user array has another length, every other one K
        specs = {"corr": self.corr, "loss": self.loss}
        specs[spec] = replace(specs[spec], **{field: np.full(length, 0.4)})
        with pytest.raises(ValueError, match=f"^per-user {what} arrays must have length K$"):
            ChannelModel.of(self.dims, specs["corr"], specs["loss"])

    def test_realization_shapes(self):
        chan = ChannelModel.of(self.dims, self.corr, self.loss).draw(9)
        assert isinstance(chan, ChannelRealization)
        K, N, M = self.dims.K, self.dims.N, self.dims.M
        assert chan.h.shape == (K, M)
        assert chan.R.shape == (M, N)
        assert chan.t.shape == (K, N)
        assert chan.g.shape == (K, M, N)
        assert chan.lam.shape == (K - 1, N)
        assert chan.g1.shape == (M, N)


@pytest.mark.parametrize("K,lead", [(3, (4,)), (3, ()), (1, (2,)), (1, ())])
def test_reflected_channels_are_each_users_r_diag_t(K, lead):
    # g stacks G_k = R diag(t_k): C-contiguous (..., K, M, N) with
    # g[..., k, :, n] = t[..., k, n] * R[..., :, n] bit for bit, and g1 is a
    # view of G_1
    dims = SystemDims(K, 5, 3)
    z = np.random.default_rng(K).standard_normal((*lead, _channel_normals(dims)))
    chan = ChannelModel.of(dims, CorrelationSpec.uniform(0.4, K), PathLossSpec.unit(K)).channels(z)
    assert chan.g.shape == (*lead, K, 3, 5) and chan.g.flags.c_contiguous
    for k, n in np.ndindex(K, 5):
        assert np.array_equal(chan.g[..., k, :, n], chan.t[..., k, n, None] * chan.R[..., :, n])
    assert np.shares_memory(chan.g1, chan.g[..., 0, :, :])
    assert np.array_equal(chan.g1, chan.g[..., 0, :, :])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12), st.booleans(), st.integers(0, 2**32 - 1))
def test_reflected_power_from_factors(K, N, M, r_var_n_factor, seed):
    # per trial and user of a block, sum_n |t_kn|^2 ||r_n||^2 equals the
    # squared norm of the user's reflected channels g_k; distinct per-user
    # path losses and correlations, so a mixed-up user shows
    dims = SystemDims(K, N, M)
    corr = CorrelationSpec(np.linspace(0.0, 0.8, K), 0.5 + 0.3j, -0.6, np.linspace(0.9, 0.1, K) * 1j)
    loss = PathLossSpec(-30.0, 1.0, np.linspace(5.0, 50.0, K), np.linspace(2.0, 9.0, K), 40.0, 3.5, 2.2, 2.0)
    z = np.random.default_rng(seed).standard_normal((3, _channel_normals(dims)))
    chan = ChannelModel.of(dims, corr, loss, r_var_n_factor).channels(z)
    want = np.sum(np.abs(chan.g) ** 2, axis=(-2, -1))
    assert chan.g_power.shape == (3, K)
    np.testing.assert_allclose(chan.g_power, want, rtol=1e-13, atol=0)


class TestSystemDims:
    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, 0, 1), (1, 1, 0), (-2, 3, 3)])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            SystemDims(*bad)
