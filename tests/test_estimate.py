import ast
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irsce import (
    CorrelationSpec,
    LinkBudget,
    PathLossSpec,
    ScenarioConfig,
    Schedule,
    SystemDims,
    build_context,
    complex_normal,
    dft_block,
    draw_channels,
    estimate,
    estimate_lambda_priors,
    hermitian_sqrt,
    phase1_mmse,
    phase1_mse,
    phase1_pilots,
    phase2_reflections_dft,
    phase3_plan,
    phase3_recover_noiseless,
    phase3_schedule_noiseless,
    psi_phase3,
    recover_orthogonal,
    reflected_gram,
    stacked_system_matrix,
    substream,
)
from irsce.errors import DegenerateChannelError, NumericalConditioningError, PreconditionError
from irsce.estimate import (
    Phase2NoiseInverse,
    _inverse,
    _median_inplace,
    _received,
    lmmse_weights,
    phase3_lmmse_all_slots,
    phase3_slot_classes,
    prior_inverse,
    reflected_from_scaling,
)
from irsce.harness import _scenario
from irsce.model import _as_generator, _channel_normals, _channels_from_normals, coloring_root, path_loss
from irsce.schedule import phase2_pilots, phase2_reflections_random, phase3_schedule_orthogonal_noisy
from irsce.schemes import Lmmse, OrthogonalLmmse
from irsce.selftest import _grid

BUDGET = LinkBudget(p=2.0, sigma2=0.25)


def make_channels(K, N, M, seed, c=0.3):
    dims = SystemDims(K, N, M)
    chan = draw_channels(dims, CorrelationSpec.uniform(c, K), PathLossSpec.unit(K), seed)
    return dims, chan


def residual_block(chan, sched, h_hat):
    """The noiseless block of `sched` synthesized from the direct residual
    chan.h - h_hat, as the harness forms Phases II and III."""
    return _received(replace(chan, h=chan.h - h_hat), sched.pilots, sched.reflections, BUDGET.p)


class TestSimulateReceived:
    """The received-signal kernel `_received`, the one every trial runs."""

    def test_zero_pilots_zero_output(self):
        dims, chan = make_channels(2, 3, 2, 1)
        sched = Schedule(np.zeros((2, 4)), np.ones((3, 4)))
        y = _received(chan, sched.pilots, sched.reflections, BUDGET.p)
        np.testing.assert_allclose(y, 0.0, atol=0)

    def test_irs_off_single_user(self):
        dims, chan = make_channels(3, 2, 4, 2)
        pilots = np.zeros((3, 1), dtype=complex)
        pilots[1, 0] = 1.0
        y = _received(chan, pilots, np.zeros((2, 1)), BUDGET.p)
        np.testing.assert_allclose(y[:, 0], np.sqrt(BUDGET.p) * chan.h[1], rtol=1e-14)

    def test_matches_bruteforce(self):
        dims, chan = make_channels(3, 4, 2, 3)
        rng = substream(30)
        tau = 5
        pilots = np.where(rng.uniform(size=(3, tau)) < 0.6, 1, 0) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, (3, tau)))
        refl = np.where(rng.uniform(size=(4, tau)) < 0.6, 1, 0) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, (4, tau)))
        y = _received(chan, pilots, refl, BUDGET.p)
        # independent direct-summation oracle
        ref = np.zeros_like(y)
        for i in range(tau):
            for k in range(3):
                term = chan.h[k].astype(complex).copy()
                for n in range(4):
                    term += refl[n, i] * chan.t[k, n] * chan.R[:, n]
                ref[:, i] += np.sqrt(BUDGET.p) * term * pilots[k, i]
        np.testing.assert_allclose(y, ref, atol=1e-12 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("K,N,M,tau", [(1, 3, 2, 4), (3, 4, 2, 5), (2, 3, 5, 6), (4, 6, 3, 2)])
    def test_matches_einsum_formula(self, K, N, M, tau):
        # the reflected sum as one product against A (x) Phi equals the
        # three-operand contraction; random phases on every pilot and element
        dims, chan = make_channels(K, N, M, 60 + K)
        rng = substream(61, K, N, M)
        pilots = np.exp(1j * rng.uniform(0, 2 * np.pi, (K, tau)))
        refl = np.exp(1j * rng.uniform(0, 2 * np.pi, (N, tau)))
        y = _received(chan, pilots, refl, BUDGET.p)
        ref = np.sqrt(BUDGET.p) * (chan.h.T @ pilots + np.einsum("ki,ni,kmn->mi", pilots, refl, chan.g))
        np.testing.assert_allclose(y, ref, rtol=1e-12)

    def test_dimension_mismatch(self):
        dims, chan = make_channels(2, 3, 2, 4)
        with pytest.raises(ValueError):
            _received(chan, np.ones((4, 2)), np.ones((3, 2)), BUDGET.p)


class TestPhase1Noiseless:
    def test_single_user_single_slot(self):
        dims, chan = make_channels(1, 1, 3, 6)
        P1 = phase1_pilots(1, 1)
        y = _received(chan, P1, np.zeros((1, 1)), BUDGET.p)
        np.testing.assert_allclose(
            recover_orthogonal(y, P1, BUDGET.p)[:, 0], y[:, 0] / np.sqrt(BUDGET.p), rtol=1e-14)

    def test_exact_recovery(self):
        dims, chan = make_channels(3, 1, 4, 7)
        P1 = phase1_pilots(3, 3)
        y = _received(chan, P1, np.zeros((1, 3)), BUDGET.p)
        h_hat = recover_orthogonal(y, P1, BUDGET.p).T
        assert np.max(np.abs(h_hat - chan.h)) < 1e-10 * np.max(np.abs(chan.h))

    def test_power_invariance(self):
        dims, chan = make_channels(2, 1, 3, 8)
        P1 = phase1_pilots(2, 2)
        hi = LinkBudget(p=4 * BUDGET.p, sigma2=BUDGET.sigma2)
        y1 = _received(chan, P1, np.zeros((1, 2)), BUDGET.p)
        y2 = _received(chan, P1, np.zeros((1, 2)), hi.p)
        np.testing.assert_allclose(
            recover_orthogonal(y1, P1, BUDGET.p),
            recover_orthogonal(y2, P1, hi.p), rtol=1e-12)


class TestPhase1Mmse:
    def test_zero_noise_limit(self):
        dims, chan = make_channels(3, 1, 4, 9)
        P1 = phase1_pilots(3, 3)
        y = _received(chan, P1, np.zeros((1, 3)), BUDGET.p)
        h_exact = recover_orthogonal(y, P1, BUDGET.p).T
        h_mmse = phase1_mmse(y, P1, BUDGET.p, 1e-15, np.ones(3))
        np.testing.assert_allclose(h_mmse, h_exact, rtol=1e-9)

    def test_closed_form_spot_value(self):
        # M=1, beta=1, p=1, tau1=1, sigma2=1 -> mse = 0.5
        mse = phase1_mse(1, 1, 1.0, 1.0, np.ones(1))
        np.testing.assert_allclose(mse[0], 0.5, rtol=1e-14)

    def test_monte_carlo_oracle(self):
        # empirical squared error over 1e4 trials matches the closed form
        M, K, tau1, p, sigma2 = 2, 2, 3, 1.5, 0.6
        beta = np.array([1.0, 2.5])
        P1 = phase1_pilots(K, tau1)
        rng = substream(40)
        trials = 10_000
        sq = np.zeros(K)
        for _ in range(trials):
            h = np.stack([complex_normal(rng, (M,), b) for b in beta])
            z = complex_normal(rng, (M, tau1), sigma2)
            y = np.sqrt(p) * h.T @ P1 + z
            sq += np.sum(np.abs(phase1_mmse(y, P1, p, sigma2, beta) - h) ** 2, axis=1)
        emp = sq / trials
        np.testing.assert_allclose(emp, phase1_mse(M, tau1, p, sigma2, beta), rtol=0.03)


class TestCancelDirect:
    """The direct signal is cancelled in the channel factors: a block is
    synthesized from the direct residual H - H_hat."""

    def test_zero_pilots_noop(self):
        # with every pilot zero there is no direct term to cancel
        dims, chan = make_channels(2, 3, 2, 40)
        sched = Schedule(np.zeros((2, 4)), phase2_reflections_dft(3, 4))
        h_hat = complex_normal(substream(41), chan.h.shape, 1.0)
        np.testing.assert_array_equal(residual_block(chan, sched, h_hat),
                                      _received(chan, sched.pilots, sched.reflections, BUDGET.p))

    def test_perfect_estimates_leave_reflected_term(self):
        dims, chan = make_channels(2, 3, 2, 10)
        refl = phase2_reflections_dft(3, 3)
        sched = Schedule(phase2_pilots(2, 3), refl)
        ybar = residual_block(chan, sched, chan.h)
        expected = np.sqrt(BUDGET.p) * chan.g1 @ refl  # a_1 = 1 throughout
        np.testing.assert_allclose(ybar, expected, atol=1e-12 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("K,N,M,tau", [(1, 3, 2, 4), (3, 4, 2, 5), (4, 6, 3, 9)])
    def test_residual_equals_block_minus_estimated_direct_signal(self, K, N, M, tau):
        # the block of the residual is the full block less sqrt(p) H_hat^T A,
        # for any estimate and random phases on every pilot and element
        dims, chan = make_channels(K, N, M, 42 + K)
        rng = substream(43, K)
        sched = Schedule(np.exp(1j * rng.uniform(0, 2 * np.pi, (K, tau))),
                         np.exp(1j * rng.uniform(0, 2 * np.pi, (N, tau))))
        h_hat = chan.h + complex_normal(rng, chan.h.shape, 0.1)
        y = _received(chan, sched.pilots, sched.reflections, BUDGET.p)
        want = y - np.sqrt(BUDGET.p) * h_hat.T @ sched.pilots
        np.testing.assert_allclose(residual_block(chan, sched, h_hat), want,
                                   rtol=0, atol=1e-12 * np.max(np.abs(y)))


class TestPhase2Noiseless:
    def test_trivial_single_element(self):
        dims, chan = make_channels(1, 1, 3, 11)
        refl = phase2_reflections_dft(1, 1)
        sched = Schedule(phase2_pilots(1, 1), refl)
        ybar = residual_block(chan, sched, chan.h)
        np.testing.assert_allclose(
            recover_orthogonal(ybar, refl, BUDGET.p)[:, 0],
            ybar[:, 0] / np.sqrt(BUDGET.p), rtol=1e-13)

    @pytest.mark.parametrize("tau2", [3, 5])
    def test_exact_recovery(self, tau2):
        dims, chan = make_channels(2, 3, 4, 12)
        refl = phase2_reflections_dft(3, tau2)
        sched = Schedule(phase2_pilots(2, tau2), refl)
        ybar = residual_block(chan, sched, chan.h)
        g1_hat = recover_orthogonal(ybar, refl, BUDGET.p)
        assert np.max(np.abs(g1_hat - chan.g1)) < 1e-10 * np.max(np.abs(chan.g1))


class TestPhase2Lmmse:
    def test_algebraic_simplification(self):
        # perfect Phase I, C = c*I, DFT reflections:
        # mse = N / (p*tau2/(M*sigma2) + 1/c)
        M, N, tau2, p, sigma2, c = 3, 4, 6, 1.7, 0.35, 0.8
        refl = phase2_reflections_dft(N, tau2)
        psi = M * sigma2 * np.eye(tau2)
        w = lmmse_weights(refl.conj().T, 1, p, np.linalg.inv(psi), prior_inverse(c * np.eye(N)))
        np.testing.assert_allclose(w.mse, N / (p * tau2 / (M * sigma2) + 1 / c), rtol=1e-10)

    def test_zero_noise_limit_reduces_to_exact(self):
        dims, chan = make_channels(2, 3, 4, 13)
        refl = phase2_reflections_dft(3, 3)
        sched = Schedule(phase2_pilots(2, 3), refl)
        ybar = residual_block(chan, sched, chan.h)
        sigma2 = 1e-12 * BUDGET.p
        # Phase-I residual of beta1 = 1 at tau1 = 10^9, M = 4
        c = BUDGET.p * 4 * sigma2 / (BUDGET.p * 10**9 + sigma2)
        psi = c * np.ones((3, 3)) + 4 * sigma2 * np.eye(3)
        cbi = np.eye(3) * float(np.mean(np.abs(chan.g1) ** 2) * 4)
        w = lmmse_weights(refl.conj().T, 1, BUDGET.p, np.linalg.inv(psi), prior_inverse(cbi))
        g_lmmse = w.estimate(ybar, BUDGET.p)
        g_exact = recover_orthogonal(ybar, refl, BUDGET.p)
        np.testing.assert_allclose(g_lmmse, g_exact, rtol=1e-6, atol=1e-9 * np.max(np.abs(g_exact)))

    def test_monte_carlo_oracle_synthetic_moments(self):
        # G rows iid with exact Gram c*I and white effective noise: empirical
        # squared error over 1e4 trials matches the closed form within 3%
        M, N, tau2, p, sigma2, c = 2, 3, 4, 1.0, 0.5, 0.9
        refl = phase2_reflections_dft(N, tau2)
        psi = M * sigma2 * np.eye(tau2)
        C = c * np.eye(N)
        w = lmmse_weights(refl.conj().T, 1, p, np.linalg.inv(psi), prior_inverse(C))
        rng = substream(42)
        trials = 10_000
        sq = 0.0
        for _ in range(trials):
            G = complex_normal(rng, (M, N), c / M)
            z = complex_normal(rng, (M, tau2), sigma2)
            ybar = np.sqrt(p) * G @ refl + z
            sq += float(np.sum(np.abs(w.estimate(ybar, p) - G) ** 2))
        np.testing.assert_allclose(sq / trials, w.mse, rtol=0.03)

    def test_weights_then_apply_equal_the_formula(self):
        # the hoisted weights applied to a block give exactly the estimate and
        # MSE of the written-out formula with H = Phi^H,
        # sqrt(p) Ybar Psi^-1 H (p H^H Psi^-1 H + C^-1)^-1, taken through the
        # precision's Cholesky factor L: x = Ybar Psi^-1 H, u = L^-1 x^H, then
        # sqrt(p) u^H L^-1, and the MSE ||L^-1||_F^2 as squared real and
        # imaginary parts
        M, N, tau2, p = 3, 4, 6, 1.7
        refl = phase2_reflections_random(N, tau2, 43)
        # sigma2 = 0.35, beta1 = 1.2, tau1 = 3
        c = p * M * 1.2 * 0.35 / (1.2 * p * 3 + 0.35)
        psi_inv = np.linalg.inv(c * np.ones((tau2, tau2)) + M * 0.35 * np.eye(tau2))
        X = complex_normal(substream(44), (N, N), 1.0)
        C = X @ X.conj().T + 0.5 * np.eye(N)
        ybar = complex_normal(substream(45), (M, tau2), 1.0)
        H = refl.conj().T
        psi_inv_H = psi_inv @ H
        chol_inv = estimate._lower_inverse(np.linalg.cholesky(p * H.conj().T @ psi_inv_H + np.linalg.inv(C)))
        w = lmmse_weights(refl.conj().T, 1, p, psi_inv, prior_inverse(C))
        assert np.array_equal(w.chol_inv, chol_inv)
        u = chol_inv @ (ybar @ psi_inv_H).conj().T
        assert np.array_equal(w.estimate(ybar, p), np.sqrt(p) * (u.conj().T @ chol_inv))
        assert w.mse == float(np.sum(chol_inv.view(np.float64) ** 2))

    @pytest.mark.parametrize("tau2_over_n", [1, 2, 4, 8])
    def test_hadamard_pattern_has_the_dft_closed_form(self, tau2_over_n):
        # A Sylvester Hadamard pattern (1-bit phases) has orthogonal rows like
        # the DFT's, and every row but the first sums to zero, so
        # Phi Psi_2^-1 Phi^H, and with it the closed-form e2, is the DFT's:
        # rows 0..N-1 against the paper's DFT pattern and, above tau2 = N,
        # rows 1..N against DFT rows 1..N (see You, Zheng and Zhang, IEEE
        # JSAC 2020, on discrete phase shifts). Default dims.
        cfg = ScenarioConfig(tau2=tau2_over_n * ScenarioConfig().N).validate()
        sc = _scenario(cfg, "proposed-lmmse", 0)
        noise, N, tau2 = Lmmse(sc), sc.dims.N, sc.plan.tau2
        hadamard = np.ones((1, 1), dtype=complex)
        while len(hadamard) < tau2:
            hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])

        def e2(refl):
            return noise.weights(refl, sc).mse / noise.e2_pred_den

        np.testing.assert_allclose(e2(hadamard[:N]), e2(phase2_reflections_dft(N, tau2)), rtol=1e-12)
        if tau2 > N:
            np.testing.assert_allclose(e2(hadamard[1:N + 1]), e2(dft_block(N + 1, tau2)[1:]), rtol=1e-12)

    @staticmethod
    def dft_rows_e2(**kw) -> tuple[float, float]:
        """The closed-form e2 of rows 1..N of the tau2-point DFT and of the
        paper's rows 0..N-1, for a config of `kw`. Above tau2 = N every row
        1..N sums to zero, so the Phase-I residual c 1 1^T of Psi_2 drops
        out of Phi Psi_2^-1 Phi^H, which only row 0 lowers."""
        sc = _scenario(ScenarioConfig(**kw).validate(), "proposed-lmmse", 0)
        noise, N, tau2 = Lmmse(sc), sc.dims.N, sc.plan.tau2
        return tuple(noise.weights(refl, sc).mse / noise.e2_pred_den
                     for refl in (dft_block(N + 1, tau2)[1:], dft_block(N, tau2)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(N_tau2=st.integers(1, 32).flatmap(lambda N: st.tuples(st.just(N), st.integers(N + 1, 8 * N))),
           M=st.integers(1, 32), corr_irs_reflect=st.floats(0, 0.99), corr_irs_user=st.floats(0, 0.99))
    def test_dft_rows_past_the_first_never_raise_the_closed_form(self, N_tau2, M, corr_irs_reflect,
                                                                 corr_irs_user):
        # the two correlations are those of the prior E[G_1^H G_1]
        N, tau2 = N_tau2
        shifted, paper = self.dft_rows_e2(K=4, N=N, M=M, tau2=tau2, corr_irs_reflect=corr_irs_reflect,
                                          corr_irs_user=corr_irs_user)
        assert shifted <= paper * (1 + 1e-12)

    @pytest.mark.parametrize("tau2,reduction", [(33, -0.114), (64, -0.200), (128, -0.333), (256, -0.500)])
    def test_dft_rows_past_the_first_at_default_dims(self, tau2, reduction):
        shifted, paper = self.dft_rows_e2(tau2=tau2)
        assert shifted / paper - 1 == pytest.approx(reduction, abs=5e-4)

    def test_psi_phase2_form(self):
        # M = 4, tau1 = 2, p = 2, sigma2 = 0.5, beta1 = 1.5: the record's
        # Psi^-1 is the inverse of the written-out Phase-II noise covariance
        psi_inv = Phase2NoiseInverse.of(4, 2, 2.0, 0.5, 1.5)
        coeff = 2.0 * 4 * 1.5 * 0.5 / (1.5 * 2.0 * 2 + 0.5)
        psi = coeff * np.ones((3, 3)) + 4 * 0.5 * np.eye(3)
        np.testing.assert_allclose(psi_inv @ np.eye(3), np.linalg.inv(psi), rtol=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        tau=st.integers(1, 40),
        d=st.integers(1, 6),
        c=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=3),
        s=st.floats(1e-3, 1e3),
        stacked=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closed_form_inverse_equals_dense(self, tau, d, c, s, stacked, seed):
        # Psi^-1 H of the record, for one coefficient or a stack (n, 1, 1) of
        # them, equals the dense inverse of c 1 1^T + s I applied to H
        H = complex_normal(substream(seed), (tau, d), 1.0)
        coeffs = np.array(c)
        got = Phase2NoiseInverse(coeffs[:, None, None] if stacked else coeffs[0], s) @ H
        assert got.shape == ((len(c), tau, d) if stacked else (tau, d))
        for ci, g in zip(coeffs, got if stacked else [got]):
            want = np.linalg.inv(ci * np.ones((tau, tau)) + s * np.eye(tau)) @ H
            # the dense inverse's round-off grows with the condition number
            cond = (s + tau * ci) / s
            np.testing.assert_allclose(g, want, rtol=0, atol=1e-13 * cond * np.max(np.abs(H)) / s)


def hermitian_precisions(rng, lead, n, log_kappa):
    """Hermitian positive-definite matrices (*lead, n, n), each U diag(s) U^H
    with a random unitary U and eigenvalues s spaced geometrically from 1
    down to 10^-log_kappa."""
    s = np.logspace(0, -log_kappa, n)
    U, _ = np.linalg.qr(complex_normal(rng, (*lead, n, n), 1.0))
    P = (U * s[..., None, :]) @ U.conj().swapaxes(-1, -2)
    return (P + P.conj().swapaxes(-1, -2)) / 2


def weights_of(precision):
    """`lmmse_weights` whose posterior precision is `precision` exactly:
    a zero system H (..., 1, n) adds nothing to the prior inverse."""
    *lead, n, _ = precision.shape
    return lmmse_weights(np.zeros((*lead, 1, n), dtype=complex), 1, 1.0, np.eye(1), precision)


class TestLmmseKernel:
    """The weights kernel's Cholesky factor and its blocked triangular
    inverse against `np.linalg.inv`. n covers a single diagonal block
    (n <= 8), a short last block (n not a multiple of 8) and full blocks."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.one_of(st.integers(1, 40), st.just(64)),
           lead=st.sampled_from(((), (2,), (2, 3))),
           log_kappa=st.floats(0.0, 8.0),
           seed=st.integers(0, 2**32 - 1))
    def test_factored_inverse_equals_dense(self, n, lead, log_kappa, seed):
        rng = substream(seed)
        P = hermitian_precisions(rng, lead, n, log_kappa)
        w = weights_of(P)
        ref = np.linalg.inv(P)
        # relative tolerance kappa n eps, against ||P^-1||_2 = kappa
        kappa = 10.0 ** log_kappa
        tol = 10 * kappa * n * np.finfo(float).eps
        assert np.array_equal(np.triu(w.chol_inv, 1), np.zeros_like(w.chol_inv))
        assert np.max(np.abs(w.cov - ref)) <= tol * kappa
        trace = np.trace(ref, axis1=-2, axis2=-1).real
        assert w.mse.shape == trace.shape
        assert np.all(np.abs(w.mse - trace) <= tol * trace)
        # `estimate` with Psi^-1 H = I and p = 1 applies P^-1 to a row v^H;
        # the conjugate transpose of the result is P^-1 v, as Phase III takes it
        v = complex_normal(rng, (*lead, n, 1), 1.0)
        row = v.conj().swapaxes(-1, -2)
        got = w._replace(psi_inv_H=np.eye(n)).estimate(row, 1.0)
        assert np.max(np.abs(got - row @ ref)) <= tol * kappa * np.max(np.linalg.norm(v, axis=-2))
        col = got.conj().swapaxes(-1, -2)
        assert np.max(np.abs(col - ref @ v)) <= tol * kappa * np.max(np.linalg.norm(v, axis=-2))

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_indefinite_precision_raises(self, lead):
        # nonsingular but not positive definite: `inv` would accept it
        P = np.broadcast_to(np.diag([1.0, -1.0, 2.0]).astype(complex), (*lead, 3, 3)).copy()
        if lead:
            P[:2] = np.eye(3)  # only the last of the stack is indefinite
        with pytest.raises(NumericalConditioningError, match="posterior precision"):
            weights_of(P)


class TestPhase3Noiseless:
    def test_example1_slot_by_slot(self):
        dims, chan = make_channels(3, 3, 2, 14)
        sched, plan = phase3_schedule_noiseless(dims)
        ybar = residual_block(chan, sched, chan.h)
        sp = np.sqrt(BUDGET.p)
        g = chan.g1
        # per-slot inverse solutions as an independent oracle
        lam22, lam23 = np.linalg.inv(np.stack([g[:, 1], g[:, 2]], axis=1)) @ ybar[:, 0] / sp
        lam31, lam33 = np.linalg.inv(np.stack([g[:, 0], g[:, 2]], axis=1)) @ ybar[:, 1] / sp
        y3 = ybar[:, 2] / sp - lam23 * 0 - (lam22 * g[:, 1] + lam31 * g[:, 0])
        lam21, lam32 = np.linalg.inv(np.stack([g[:, 0], g[:, 1]], axis=1)) @ y3
        lam = phase3_recover_noiseless(ybar, plan, g, BUDGET.p)
        np.testing.assert_allclose(lam[0], [lam21, lam22, lam23], rtol=1e-9)
        np.testing.assert_allclose(lam[1], [lam31, lam32, lam33], rtol=1e-9)
        np.testing.assert_allclose(lam, chan.lam, rtol=1e-9)

    def test_two_user_wide_array(self):
        dims, chan = make_channels(2, 3, 5, 15)
        sched, plan = phase3_schedule_noiseless(dims)
        assert sched.tau == 1
        ybar = residual_block(chan, sched, chan.h)
        lam = phase3_recover_noiseless(ybar, plan, chan.g1, BUDGET.p)
        oracle = np.linalg.pinv(chan.g1) @ ybar[:, 0] / np.sqrt(BUDGET.p)
        np.testing.assert_allclose(lam[0], oracle, rtol=1e-9)
        np.testing.assert_allclose(lam, chan.lam, rtol=1e-9)

    @pytest.mark.parametrize("K,N,M", [(2, 4, 2), (4, 5, 3), (5, 3, 3), (3, 8, 3), (5, 8, 5)])
    def test_small_grid_exact(self, K, N, M):
        # the orthogonal noisy plan is a valid plan too, and recovers exactly
        dims, chan = make_channels(K, N, M, 16 + K + N + M)
        for build in (phase3_schedule_noiseless, phase3_schedule_orthogonal_noisy):
            sched, plan = build(dims)
            ybar = residual_block(chan, sched, chan.h)
            lam = phase3_recover_noiseless(ybar, plan, chan.g1, BUDGET.p)
            assert np.max(np.abs(lam - chan.lam) / np.abs(chan.lam)) < 1e-9

    def test_extra_slots_idempotent(self):
        dims, chan = make_channels(3, 3, 2, 17)
        sched, plan = phase3_schedule_noiseless(dims, tau3=5)
        ybar = residual_block(chan, sched, chan.h)
        lam = phase3_recover_noiseless(ybar, plan, chan.g1, BUDGET.p)
        np.testing.assert_allclose(lam, chan.lam, rtol=1e-9)

    @pytest.mark.parametrize("K,N,M,tau3", [(3, 5, 2, 17), (4, 16, 4, 96), (5, 8, 20, 9)])
    def test_columns_past_base_cycle_not_read(self, K, N, M, tau3):
        # the repeats carry NaN; the estimate is that of the base cycle alone
        dims, chan = make_channels(K, N, M, 18 + K + N + M)
        sched, plan = phase3_schedule_noiseless(dims, tau3)
        base = len(plan.slots)
        assert sched.tau == tau3 > base
        ybar = residual_block(chan, sched, chan.h)
        ybar[:, base:] = np.nan
        lam = phase3_recover_noiseless(ybar, plan, chan.g1, BUDGET.p)
        assert np.all(np.isfinite(lam))
        np.testing.assert_array_equal(lam, phase3_recover_noiseless(ybar[:, :base], plan, chan.g1, BUDGET.p))

    def test_block_shorter_than_base_cycle_rejected(self):
        dims, chan = make_channels(3, 5, 2, 19)
        sched, plan = phase3_schedule_noiseless(dims)
        assert len(plan.slots) == 5
        ybar = residual_block(chan, sched, chan.h)[:, :3]
        with pytest.raises(PreconditionError, match=r"^3 Phase-III columns < 5 base-cycle slots$"):
            phase3_recover_noiseless(ybar, plan, chan.g1, BUDGET.p)

    def test_degenerate_channel_rejected(self):
        dims = SystemDims(2, 2, 2)
        plan = phase3_plan(dims)
        g1 = np.ones((2, 2), dtype=complex)  # identical columns, rank 1
        with pytest.raises(DegenerateChannelError):
            phase3_recover_noiseless(np.ones((2, 1), dtype=complex), plan, g1, 1.0)


def conditioned_stack(rng, T, M, d, log_kappa, scale=1.0):
    """T systems (T, M, d), each scale * U diag(s) V^H with orthonormal
    columns U, a unitary V and singular values s spaced geometrically from 1
    down to 10^-log_kappa."""
    s = np.logspace(0, -log_kappa, d)
    stack = []
    for _ in range(T):
        U, _ = np.linalg.qr(complex_normal(rng, (M, d), 1.0))
        V, _ = np.linalg.qr(complex_normal(rng, (d, d), 1.0))
        stack.append(scale * (U * s) @ V.conj().T)
    return np.stack(stack)


@st.composite
def system_shapes(draw, min_d=1):
    """(T, M, d): a stack of 1..3 systems with min_d <= d <= M <= 40, square
    about half the time."""
    M = draw(st.integers(min_d, 40))
    d = M if draw(st.booleans()) else draw(st.integers(min_d, M))
    return draw(st.integers(1, 3)), M, d


class TestLeftInverse:
    """`estimate._LeftInverse` against an SVD pseudo-inverse written here."""

    C = 100  # relative error bound C * kappa * eps, fixed before the first run

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(system_shapes(), st.floats(0, 8), st.floats(1e-6, 1e3), st.integers(0, 2**32 - 1))
    def test_solve_matches_svd_pseudo_inverse(self, shape, log_kappa, scale, seed):
        T, M, d = shape
        rng = substream(seed)
        A = conditioned_stack(rng, T, M, d, log_kappa, scale)
        b = (A @ complex_normal(rng, (T, d, 1), 1.0))[..., 0]
        x = estimate._LeftInverse.of(A).solve(b)
        assert x.shape == (T, d)
        eps = np.finfo(float).eps
        for t in range(T):
            U, s, Vh = np.linalg.svd(A[t], full_matrices=False)
            want = Vh.conj().T @ ((U.conj().T @ b[t]) / s)
            rel = np.linalg.norm(x[t] - want) / np.linalg.norm(want)
            assert rel <= self.C * (s[0] / s[-1]) * eps, (rel, s[0] / s[-1])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(system_shapes(min_d=2), st.sampled_from(["rank", "zero", "kappa"]), st.floats(11, 16),
           st.integers(0, 2), st.integers(0, 2**32 - 1))
    def test_degenerate_stack_raises(self, shape, kind, log_kappa, which, seed):
        # one system of the stack is exactly rank-deficient (a repeated
        # column), all zero, or has condition number 1e11 or more
        T, M, d = shape
        rng = substream(seed)
        A = conditioned_stack(rng, T, M, d, 0.0)
        bad = which % T
        if kind == "rank":
            A[bad, :, -1] = A[bad, :, 0]
        elif kind == "zero":
            A[bad] = 0.0
        else:
            A[bad] = conditioned_stack(rng, 1, M, d, log_kappa)[0]
        with pytest.raises(DegenerateChannelError):
            estimate._LeftInverse.of(A)


def stacked_system_matrix_loop(sched, g1):
    """Reference form of `stacked_system_matrix`, one column block per slot,
    user and element."""
    A, phi = sched.pilots, sched.reflections
    K = A.shape[0]
    N, tau3 = phi.shape
    M = g1.shape[0]
    V = np.zeros((M * tau3, (K - 1) * N), dtype=complex)
    for i in range(tau3):
        rows = slice(i * M, (i + 1) * M)
        for k in range(2, K + 1):
            for n in range(1, N + 1):
                V[rows, (k - 2) * N + (n - 1)] = phi[n - 1, i] * A[k - 1, i] * g1[:, n - 1]
    return V


class TestStackedSystemMatrix:
    @pytest.mark.parametrize("grid", [[SystemDims(3, 5, 2)], [SystemDims(4, 16, 4)], list(_grid(4, 4))],
                             ids=["K3N5M2", "K4N16M4", "selftest-grid"])
    def test_equals_loop(self, grid):
        # same multiplication order (phi * a) * g1 as the loop, so bit-equal
        rng = substream(55, len(grid))
        for dims in grid:
            sched, _ = phase3_schedule_noiseless(dims)
            g1 = complex_normal(rng, (dims.M, dims.N), 1.0)
            V = stacked_system_matrix(sched, g1)
            assert np.array_equal(V, stacked_system_matrix_loop(sched, g1)), dims

    @pytest.mark.parametrize("K,N,M", [(2, 3, 2), (3, 3, 2), (4, 6, 8), (5, 4, 3)])
    def test_full_rank_on_noiseless_schedule(self, K, N, M):
        dims = SystemDims(K, N, M)
        sched, _ = phase3_schedule_noiseless(dims)
        rng = substream(50 + K)
        g1 = rng.standard_normal((M, N)) + 1j * rng.standard_normal((M, N))
        V = stacked_system_matrix(sched, g1)
        s = np.linalg.svd(V, compute_uv=False)
        need = (K - 1) * N
        assert s[need - 1] > 1e-9 * s[0]


def phase3_lmmse(y, G, p, psi, clam):
    """One Phase-III slot group's LMMSE estimate of its scaling-factor
    sub-vector and its conditional MSE, on the package's weights kernel.

    y may be (M,) for a single observation or (M, R) for R repeats of the same
    (user, element-subset) slot; repeats are fused into one estimate.

    lam_hat = sqrt(p) (R p G^H Psi^-1 G + C_lam^-1)^-1 G^H Psi^-1 sum_r y_r,
    mse     = tr((R p G^H Psi^-1 G + C_lam^-1)^-1).
    """
    y = np.asarray(y)
    reps = 1 if y.ndim == 1 else y.shape[1]
    y_sum = y if y.ndim == 1 else y.sum(axis=1)
    w = lmmse_weights(G, reps, p, _inverse(psi, "Phase-III noise covariance"), prior_inverse(clam))
    return np.sqrt(p) * (w.cov @ (w.psi_inv_H.conj().T @ y_sum)), float(w.mse)


class TestPhase3Lmmse:
    def test_zero_noise_weak_prior_limit(self):
        dims, chan = make_channels(2, 3, 4, 18)
        G = chan.g1
        lam_true = chan.lam[0]
        p = 2.0
        y = np.sqrt(p) * G @ lam_true
        psi = 1e-14 * np.eye(4)
        clam = 1e10 * np.eye(3)
        lam_hat, _ = phase3_lmmse(y, G, p, psi, clam)
        oracle = np.linalg.pinv(G) @ y / np.sqrt(p)
        np.testing.assert_allclose(lam_hat, oracle, rtol=1e-5)

    def test_phase_invariance(self):
        dims, chan = make_channels(2, 3, 4, 19)
        G = chan.g1
        p = 1.3
        rng = substream(51)
        y = complex_normal(rng, (4,), 1.0)
        psi = psi_phase3(p, 0.2, 1.0, 2, np.eye(4))
        clam = np.eye(3)
        a, _ = phase3_lmmse(y, G, p, psi, clam)
        theta = np.exp(1j * 0.7)
        b, _ = phase3_lmmse(theta * y, theta * G, p, psi, clam)
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_repeats_equal_stacked_formulation(self):
        # two repeats share the Phase-I residual: the stacked noise has the
        # cross-repeat blocks p Cov(e_k), and fusing the repeats weights
        # their sum with Psi_3(2)
        dims, chan = make_channels(2, 3, 4, 20)
        G = chan.g1
        p, sigma2 = 1.1, 0.3
        rng = substream(52)
        y = complex_normal(rng, (4, 2), 1.0)
        psi = psi_phase3(p, sigma2, 0.9, 2, exp_corr(0.4, 4))
        clam = 0.7 * np.eye(3)
        fused, fused_mse = phase3_lmmse(y, G, p, psi_phase3(p, sigma2, 0.9, 2, exp_corr(0.4, 4), reps=2), clam)
        G_s = np.vstack([G, G])
        resid = psi - sigma2 * np.eye(4)
        psi_s = np.block([[psi, resid], [resid, psi]])
        stacked, stacked_mse = phase3_lmmse(y.T.reshape(-1), G_s, p, psi_s, clam)
        np.testing.assert_allclose(fused, stacked, rtol=1e-10)
        np.testing.assert_allclose(fused_mse, stacked_mse, rtol=1e-10)

    @pytest.mark.parametrize("reps", [1, 8, 32])
    def test_monte_carlo_conditional_oracle(self, reps):
        # fixed G, lam and the Phase-I residual e drawn once per trial from
        # the modeled second moments, fresh AWGN in each of the reps repeats
        # y_r = sqrt(p) (G lam + e) + z_r: the empirical conditional MSE of
        # the estimate with Psi_3(reps) matches the trace closed form within 3%
        dims, chan = make_channels(2, 3, 4, 21)
        G = chan.g1 / np.max(np.abs(chan.g1))
        p, sigma2, tau1, beta, M = 1.4, 0.4, 3, 0.8, 4
        CB = exp_corr(0.5, M)
        d = beta * p * tau1 + sigma2
        cov_e = beta * sigma2 / d**2 * (sigma2 * CB + beta * p * tau1 * np.eye(M))
        psi = psi_phase3(p, sigma2, beta, tau1, CB, reps=reps)
        clam = np.array([[1.0, 0.2, 0.0], [0.2, 0.9, 0.1], [0.0, 0.1, 1.2]], dtype=complex)
        rng = substream(53)
        trials = 10_000
        lam = complex_normal(rng, (trials, 3), 1.0) @ hermitian_sqrt(clam).T
        e = complex_normal(rng, (trials, M), 1.0) @ hermitian_sqrt(cov_e).T
        z = complex_normal(rng, (trials, M, reps), sigma2)
        y = np.sqrt(p) * (lam @ G.T + e)[:, :, None] + z
        w = lmmse_weights(G, reps, p, np.linalg.inv(psi), np.linalg.inv(clam))
        lam_hat = np.sqrt(p) * y.sum(axis=-1) @ w.psi_inv_H.conj() @ w.cov.T
        sq = float(np.sum(np.abs(lam_hat - lam) ** 2))
        np.testing.assert_allclose(sq / trials, float(w.mse), rtol=0.03)

    def test_psi_phase3_form(self):
        p, sigma2, beta, tau1 = 2.0, 0.5, 1.5, 3
        CB = exp_corr(0.3, 2)
        psi = psi_phase3(p, sigma2, beta, tau1, CB)
        denom = beta * p * tau1 + sigma2
        expected = (beta * p * sigma2**2 / denom**2) * CB + (
            (beta * p) ** 2 * tau1 * sigma2 / denom**2 + sigma2) * np.eye(2)
        np.testing.assert_allclose(psi, expected, rtol=1e-12)

    def test_psi_phase3_is_the_simulated_residual_covariance(self):
        # Phase I by `phase1_mmse` on h_k ~ CN(0, beta_k C_B), then the
        # Phase-III residual sqrt(p) (h_k - h_hat_k) + z of each user: its
        # sample covariance over 20000 trials is Psi_3 to 5% in Frobenius
        # norm (the sampling error is about sqrt(M / trials) = 1.4%)
        K, M, tau1, p, sigma2 = 3, 4, 4, 2.0, 0.5
        beta = np.array([0.8, 0.3, 1.5])
        corr = (0.6, 0.2 + 0.5j, -0.4)
        trials = 20_000
        P1 = phase1_pilots(K, tau1)
        rng = substream(54)
        roots = np.stack([np.sqrt(b) * hermitian_sqrt(exp_corr(c, M)) for b, c in zip(beta, corr)])
        h = (roots @ complex_normal(rng, (trials, K, M, 1), 1.0))[..., 0]
        y = np.sqrt(p) * h.swapaxes(-1, -2) @ P1 + complex_normal(rng, (trials, M, tau1), sigma2)
        z = complex_normal(rng, (trials, K, M), sigma2)
        resid = np.sqrt(p) * (h - phase1_mmse(y, P1, p, sigma2, beta)) + z
        for k in range(K):
            sample = resid[:, k].T @ resid[:, k].conj() / trials
            psi = psi_phase3(p, sigma2, float(beta[k]), tau1, exp_corr(corr[k], M))
            assert np.linalg.norm(sample - psi) <= 0.05 * np.linalg.norm(psi)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(p=st.floats(1e-3, 1e3), sigma2=st.floats(1e-6, 1e2), beta=st.floats(1e-9, 1e2),
           tau1=st.integers(1, 64), M=st.integers(1, 32), c=st.floats(-0.99, 0.99),
           reps=st.integers(1, 64))
    def test_psi_phase3_trace_is_phase1_mse_plus_noise(self, p, sigma2, beta, tau1, M, c, reps):
        psi = psi_phase3(p, sigma2, beta, tau1, exp_corr(c, M), reps=reps)
        expected = reps * p * phase1_mse(M, tau1, p, sigma2, beta) + M * sigma2
        np.testing.assert_allclose(np.trace(psi).real, expected, rtol=1e-12)


class TestStackedPhase3:
    """The per-class stacked Phase-III kernels against a per-group
    `phase3_lmmse` loop. K=3, N=5, M=2 gives each user subsets of sizes
    2, 2 and 1, so every plan has two size classes."""

    dims = SystemDims(3, 5, 2)
    p = 1.3

    def _inputs(self, tau3):
        _, plan = phase3_schedule_orthogonal_noisy(self.dims, tau3)
        rng = substream(70, tau3)
        groups = slot_groups(plan, tau3)
        psi = {(k, len(cols)): psi_phase3(self.p, 0.4, 0.5 + k / 10, 3, exp_corr(0.3 + 0.2j, 2), len(cols))
               for (k, _), cols in groups.items()}
        priors = {}
        for key in groups:
            X = complex_normal(rng, (len(key[1]),) * 2, 1.0)
            priors[key] = X @ X.conj().T + 0.5 * np.eye(len(key[1]))
        g1 = complex_normal(rng, (2, 5), 1.0)
        ybar = complex_normal(rng, (2, tau3), 1.0)
        return plan, psi, priors, g1, ybar

    def _loop(self, ybar, plan, g1, p, psi, priors):
        lam = np.zeros((2, 5), dtype=complex)
        total = 0.0
        for (k, delta), cols in slot_groups(plan, ybar.shape[-1]).items():
            sel = [n - 1 for n in delta]
            lam_hat, mse = phase3_lmmse(ybar[:, cols], g1[:, sel], p, psi[k, len(cols)], priors[(k, delta)])
            lam[k - 2, sel] = lam_hat
            total += mse
        return lam, total

    # minimum plan; repeats 3 and 2 (extra Phase-III slots); 9 and 10 repeats
    @pytest.mark.parametrize("tau3", [6, 17, 57])
    def test_estimator_matches_per_group_loop(self, tau3):
        plan, psi, priors, g1, ybar = self._inputs(tau3)
        classes = phase3_slot_classes(plan, tau3, psi, priors)
        assert {c.elements.shape[1] for c in classes} == {1, 2}
        lam, _ = phase3_lmmse_all_slots(ybar, plan, g1, self.p, classes)
        lam_ref, _ = self._loop(ybar, plan, g1, self.p, psi, priors)
        np.testing.assert_allclose(lam, lam_ref, rtol=1e-12)

    @pytest.mark.parametrize("tau3", [6, 17, 57])
    def test_conditional_mse_matches_per_group_loop(self, tau3):
        plan, psi, priors, g1, ybar = self._inputs(tau3)
        classes = phase3_slot_classes(plan, tau3, psi, priors)
        _, mse_ref = self._loop(ybar, plan, g1, self.p, psi, priors)
        _, mse = phase3_lmmse_all_slots(ybar, plan, g1, self.p, classes)
        np.testing.assert_allclose(mse, mse_ref, rtol=1e-12)

    # minimum plan; repeats 3 and 2; 9 and 10 repeats
    @pytest.mark.parametrize("tau3", [6, 17, 57])
    def test_kernels_match_solve_oracle(self, tau3):
        plan, psi, priors, g1, ybar = self._inputs(tau3)
        classes = phase3_slot_classes(plan, tau3, psi, priors)
        assert_match_solve_oracle(ybar, plan, g1, self.p, psi, priors, classes)

    def test_kernels_match_solve_oracle_ill_conditioned(self):
        # strongly correlated BS antennas and 64-element subsets: cond(A) is about 6e5
        cfg = replace(ScenarioConfig(), K=3, N=64, M=64, corr_bs_direct=0.99, prior_draws=1000).validate()
        ctx = build_context(cfg, "proposed-lmmse")
        strat, p = ctx.phase3, ctx.budget.p
        psi3, priors = OrthogonalLmmse.moments(_scenario(cfg, "proposed-lmmse", 0))
        chan = draw_channels(ctx.dims, ctx.corr, ctx.loss, 80)
        ybar3 = _received(chan, ctx.sched3.pilots, ctx.sched3.reflections, ctx.budget.p) + complex_normal(
            substream(81), (ctx.dims.M, ctx.sched3.tau), ctx.budget.sigma2)
        assert_match_solve_oracle(ybar3, ctx.layout, chan.g1, p, psi3, priors, strat.classes)

    def test_singular_noise_covariance_rejected(self):
        plan, psi, priors, _, _ = self._inputs(6)
        psi[3, 1] = np.ones((2, 2), dtype=complex)
        with pytest.raises(NumericalConditioningError, match="Phase-III noise covariance"):
            phase3_slot_classes(plan, 6, psi, priors)
        with pytest.raises(NumericalConditioningError, match="Phase-III noise covariance"):
            phase3_lmmse(np.ones(2), np.eye(2), self.p, psi[3, 1], np.eye(2))

    @pytest.mark.parametrize("mode", ["estimated", "perfect"])
    def test_strategy_matches_per_group_loop(self, mode):
        # the proposed scheme's Phase-III step with repeated slots, in both
        # phase3_g1 modes: the estimate and e3_pred from the chosen columns
        cfg = replace(ScenarioConfig(), K=3, N=5, M=2, tau3=17, prior_draws=1000,
                      phase3_g1=mode).validate()
        ctx = build_context(cfg, "proposed-lmmse")
        strat, p = ctx.phase3, ctx.budget.p
        psi3, priors = OrthogonalLmmse.moments(_scenario(cfg, "proposed-lmmse", 0))
        chan = draw_channels(ctx.dims, ctx.corr, ctx.loss, 74)
        g1_hat = chan.g1 * (1.0 + 0.01 * complex_normal(substream(75), chan.g1.shape, 1.0))
        ybar3 = _received(chan, ctx.sched3.pilots, ctx.sched3.reflections, ctx.budget.p) + complex_normal(
            substream(76), (ctx.dims.M, ctx.sched3.tau), ctx.budget.sigma2)
        lam, _, e3_pred = strat.estimate(ybar3, chan, g1_hat, ctx)
        source = chan.g1 if mode == "perfect" else g1_hat
        lam_ref, e3_ref = self._loop(ybar3, ctx.layout, source, p, psi3, priors)
        np.testing.assert_allclose(lam, lam_ref, rtol=1e-12)
        np.testing.assert_allclose(e3_pred, e3_ref, rtol=1e-12)


def slot_groups(plan, tau3):
    """Each base slot's (user, elements), one user per slot, mapped to its
    columns i, i + b, ... < tau3 in a tau3-slot block of a b-slot cycle."""
    b = len(plan.slots)
    return {(slot.users[0], slot.elements): list(range(i, tau3, b)) for i, slot in enumerate(plan.slots)}


def solve_oracle(ybar, plan, g1, p, psi, priors):
    """The Phase-III LMMSE written out per (user, elements) slot group of R
    repeats, with a solve against its user's Psi = psi[user, R] in place of
    its inverse:
    A = R p G^H Psi^-1 G + C_lam^-1, lam_hat = sqrt(p) A^-1 G^H Psi^-1 sum_r y_r.

    Returns (k, elements, lam_hat, A^-1, rtol) per group. rtol is fixed from
    float64 eps and the condition numbers alone: forming Psi^-1 G perturbs A
    by at most about M cond(Psi) eps relative to ||A|| (C_lam^-1 is positive
    definite, so ||R p G^H Psi^-1 G|| <= ||A||), the d x d inverse or solve
    adds d eps, and cond(A) amplifies both; the factor 2 covers the error of
    the oracle itself."""
    eps = np.finfo(float).eps
    out = []
    for (k, delta), cols in slot_groups(plan, ybar.shape[-1]).items():
        sel = [n - 1 for n in delta]
        G = g1[:, sel]
        psi_k = psi[k, len(cols)]
        psi_inv_G = np.linalg.solve(psi_k, G)
        A = len(cols) * p * G.conj().T @ psi_inv_G + np.linalg.inv(priors[(k, delta)])
        A_inv = np.linalg.inv(A)
        lam_hat = np.sqrt(p) * A_inv @ (psi_inv_G.conj().T @ ybar[:, cols].sum(axis=1))
        M, d = G.shape
        rtol = 2 * (M * np.linalg.cond(psi_k) + d) * np.linalg.cond(A) * eps
        out.append((k, sel, lam_hat, A_inv, rtol))
    return out


def assert_match_solve_oracle(ybar, plan, g1, p, psi, priors, classes):
    """`phase3_lmmse_all_slots`' estimate and MSE against `solve_oracle`,
    norm-wise per group."""
    ref = solve_oracle(ybar, plan, g1, p, psi, priors)
    lam, mse = phase3_lmmse_all_slots(ybar, plan, g1, p, classes)
    for k, sel, lam_ref, _, rtol in ref:
        assert np.linalg.norm(lam[k - 2, sel] - lam_ref) <= rtol * np.linalg.norm(lam_ref)
    mse_ref = sum(float(np.trace(A_inv).real) for _, _, _, A_inv, _ in ref)
    rtol = max(r for *_, r in ref)
    assert abs(mse - mse_ref) <= rtol * mse_ref


def exp_corr(c, n):
    from irsce import exp_correlation_matrix

    return exp_correlation_matrix(c, n)


def ref_lambda_priors(dims, corr, loss, slots, trials, cap_scale=10.0, seed=0):
    """The former `estimate_lambda_priors`: every user's t drawn and held at
    once, each complex normal built as scale * (re + 1j * im), each ratio
    t_k * (1 / t_1) and each slot's columns copied."""
    K, N = dims.K, dims.N
    _, beta_iu, _ = path_loss(loss)
    rng = _as_generator(seed)
    t = np.empty((trials, K, N), dtype=complex)
    for k in range(K):
        z = np.sqrt(beta_iu[k] / 2.0) * (rng.standard_normal((trials, N)) + 1j * rng.standard_normal((trials, N)))
        t[:, k, :] = z @ coloring_root(corr.irs_user[k], N).T
    lam = t[:, 1:, :] * (1.0 / t[:, :1, :])
    cap = cap_scale * float(np.median(np.abs(lam)))
    priors = {}
    for user, elements in slots:
        key = (int(user), tuple(int(n) for n in elements))
        if key in priors:
            continue
        sub = lam[:, user - 2, [n - 1 for n in elements]]
        kept = sub[np.max(np.abs(sub), axis=1) <= cap]
        if kept.shape[0] == 0:
            raise ValueError("trimming removed every draw; cap is too small")
        C = kept.conj().T @ kept / kept.shape[0]
        C = (C + C.conj().T) / 2.0
        d = C.shape[0]
        priors[key] = C + (1e-8 * np.trace(C).real / d) * np.eye(d)
    return priors


@st.composite
def prior_cases(draw):
    K = draw(st.integers(2, 5))
    N = draw(st.integers(1, 8))
    irs_user = [draw(st.floats(0.0, 0.95)) * np.exp(1j * draw(st.floats(-np.pi, np.pi))) for _ in range(K)]
    corr = CorrelationSpec(np.zeros(K), 0.0, 0.0, np.array(irs_user))
    loss = PathLossSpec(-20.0, 1.0, np.ones(K), np.array(draw(st.lists(st.floats(1.0, 20.0), min_size=K, max_size=K))),
                        100.0, 4.2, draw(st.floats(1.5, 3.0)), 2.2)
    subset = st.lists(st.integers(1, N), min_size=1, max_size=N, unique=True).map(sorted)
    slots = draw(st.lists(st.tuples(st.integers(2, K), subset), min_size=1, max_size=6))
    cap_scale = draw(st.one_of(st.just(10.0), st.floats(0.01, 20.0), st.just(np.inf), st.just(0.0)))
    trials = draw(st.sampled_from((1000, 1001)))  # even and odd pooled medians
    return SystemDims(K, N, 1), corr, loss, slots, cap_scale, trials, draw(st.integers(0, 2**32 - 1))


def prior_example(slots, trials, seed):
    """A `prior_cases` case at K = 3, N = 6 with the default cap."""
    corr = CorrelationSpec(np.zeros(3), 0.0, 0.0, np.array([0.3, 0.5 - 0.4j, -0.7j]))
    loss = PathLossSpec(-20.0, 1.0, np.ones(3), np.array([2.0, 5.0, 11.0]), 100.0, 4.2, 2.0, 2.2)
    return SystemDims(3, 6, 1), corr, loss, slots, 10.0, trials, seed


class TestMedianInplace:
    @pytest.mark.parametrize("nan_at", [None, 0, "middle", -1])
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 10, 1000, 1001])
    def test_equals_numpy_median(self, size, nan_at):
        rng = np.random.default_rng(size)
        # distinct values, then values with many ties
        for a in (np.abs(rng.standard_normal(size)), rng.integers(0, 3, size).astype(float)):
            if nan_at is not None:
                a[size // 2 if nan_at == "middle" else nan_at] = np.nan
            want = np.median(a)
            got = _median_inplace(a.copy())
            assert type(got) is float
            assert np.isnan(got) if np.isnan(want) else got == want, (a, got, want)


class TestLambdaPriors:
    dims = SystemDims(3, 4, 2)
    loss = PathLossSpec.unit(3)

    def test_independent_entries_near_diagonal(self):
        corr = CorrelationSpec.uniform(0.0, 3)
        priors = estimate_lambda_priors(
            self.dims, corr, self.loss, [(2, (1, 2, 3, 4))], trials=10_000, seed=60)
        C = priors[(2, (1, 2, 3, 4))]
        off = np.max(np.abs(C - np.diag(np.diag(C))))
        assert off / np.min(np.abs(np.diag(C))) < 0.1

    def test_untrimmed_heavy_tail_unstable(self):
        # variance-vs-trials diagnostic documenting the divergence: without
        # the cap the sample second moment never settles (dominated by
        # near-zero typical-user draws), while the trimmed one is stable
        corr = CorrelationSpec.uniform(0.0, 3)
        slots = [(2, (1, 2))]
        key = (2, (1, 2))
        counts = (2000, 8000, 32000)
        trimmed = [
            np.trace(estimate_lambda_priors(
                self.dims, corr, self.loss, slots, trials=t, seed=61)[key]).real
            for t in counts
        ]
        untrimmed = [
            np.trace(estimate_lambda_priors(
                self.dims, corr, self.loss, slots, trials=t, cap_scale=np.inf, seed=61)[key]).real
            for t in counts
        ]
        assert max(trimmed) / min(trimmed) < 1.05
        assert max(untrimmed) / min(untrimmed) > 1.5
        assert all(u > t for u, t in zip(untrimmed, trimmed))

    def test_seeded_determinism(self):
        corr = CorrelationSpec.uniform(0.2, 3)
        a = estimate_lambda_priors(self.dims, corr, self.loss, [(2, (1, 2))], trials=2000, seed=62)
        b = estimate_lambda_priors(self.dims, corr, self.loss, [(2, (1, 2))], trials=2000, seed=62)
        assert np.array_equal(a[(2, (1, 2))], b[(2, (1, 2))])

    def test_hermitian_psd(self):
        corr = CorrelationSpec.uniform(0.4, 3)
        priors = estimate_lambda_priors(
            self.dims, corr, self.loss, [(2, (1, 3)), (3, (2, 4))], trials=3000, seed=63)
        for C in priors.values():
            np.testing.assert_allclose(C, C.conj().T, atol=1e-14)
            assert np.min(np.linalg.eigvalsh(C)) > 0

    def test_too_few_draws_is_a_precondition_error(self):
        corr = CorrelationSpec.uniform(0.2, 3)
        with pytest.raises(PreconditionError, match="1000 draws"):
            estimate_lambda_priors(self.dims, corr, self.loss, [(2, (1, 2))], trials=999, seed=64)

    def test_trimming_every_draw_is_a_precondition_error(self):
        corr = CorrelationSpec.uniform(0.2, 3)
        with pytest.raises(PreconditionError, match="removed every draw"):
            estimate_lambda_priors(self.dims, corr, self.loss, [(2, (1, 2))], trials=1000, cap_scale=0.0, seed=65)

    # K = 3, N = 4: element 0 and user 1 would alias element N and user K
    # through negative indexing; the others would raise numpy's own errors
    @pytest.mark.parametrize("slot", [(2, (0,)), (1, (1,)), (2, (5,)), (4, (1,)), (2, ())])
    def test_slot_out_of_range_is_a_precondition_error(self, slot):
        corr = CorrelationSpec.uniform(0.2, 3)
        with pytest.raises(PreconditionError, match=re.escape(f"slot {slot} needs")):
            estimate_lambda_priors(self.dims, corr, self.loss, [(2, (1, 2)), slot], trials=1000, seed=66)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(prior_cases())
    # one user's consecutive run, taken as a view, beside its gapped subset, copied
    @example(prior_example([(2, (2, 3, 4)), (2, (1, 3, 6))], 1000, 68))
    @example(prior_example([(3, (1, 2, 4)), (3, (1, 2, 3, 4, 5, 6)), (3, (5,))], 1001, 69))
    def test_equals_former_implementation(self, case):
        dims, corr, loss, slots, cap_scale, trials, seed = case
        try:
            want = ref_lambda_priors(dims, corr, loss, slots, trials, cap_scale=cap_scale, seed=seed)
        except ValueError:
            with pytest.raises(PreconditionError):
                estimate_lambda_priors(dims, corr, loss, slots, trials=trials, cap_scale=cap_scale, seed=seed)
            return
        got = estimate_lambda_priors(dims, corr, loss, slots, trials=trials, cap_scale=cap_scale, seed=seed)
        assert got.keys() == want.keys()
        for key, C in want.items():
            assert got[key].tobytes() == C.tobytes(), key

    def test_equals_former_implementation_at_default_size(self):
        # K = 8, N = 32, 10 000 draws with every element in each user's slot:
        # the size of the default config, which the property above never reaches
        K, N = 8, 32
        corr = CorrelationSpec(np.zeros(K), 0.0, 0.0, 0.6 * np.exp(1j * np.linspace(-2.0, 2.5, K)))
        loss = PathLossSpec(-20.0, 1.0, np.ones(K), np.linspace(2.0, 9.0, K), 100.0, 4.2, 2.2, 2.2)
        slots = [(k, tuple(range(1, N + 1))) for k in range(2, K + 1)]
        dims = SystemDims(K, N, 32)
        want = ref_lambda_priors(dims, corr, loss, slots, 10_000, seed=67)
        got = estimate_lambda_priors(dims, corr, loss, slots, trials=10_000, seed=67)
        assert got.keys() == want.keys()
        for key, C in want.items():
            assert got[key].tobytes() == C.tobytes(), key

    def test_peak_memory_at_default_dims(self):
        # K = 8, N = 32, 10 000 draws: the (K-1, draws, N) ratios take 35 MiB;
        # holding every user's t beside them as well peaked near 109 MiB.
        dims = SystemDims(8, 32, 32)
        slots = [(k, tuple(range(1, 33))) for k in range(2, 9)]
        corr, loss = CorrelationSpec.uniform(0.5, 8), PathLossSpec.unit(8)
        estimate_lambda_priors(dims, corr, loss, slots, trials=1000, seed=66)  # warm caches
        tracemalloc.start()
        try:
            estimate_lambda_priors(dims, corr, loss, slots, trials=10_000, seed=66)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestReflectedGram:
    # complex correlation scalars and distinct, non-unit path losses per user
    dims = SystemDims(2, 3, 2)
    corr = CorrelationSpec(np.array([0.2, 0.1]), 0.5 - 0.3j, 0.4 + 0.5j, np.array([0.3 + 0.6j, -0.5 + 0.2j]))
    loss = PathLossSpec(-3.0, 1.0, np.array([2.0, 3.0]), np.array([1.5, 2.5]), 1.2, 2.0, 2.1, 2.2)

    def test_white_case_matches_theory(self):
        # no correlation, unit path losses: E[G^H G] = M * N * I  (the
        # IRS->BS draw carries the explicit N variance factor)
        dims = SystemDims(1, 3, 4)
        corr = CorrelationSpec.uniform(0.0, 1)
        gram = reflected_gram(dims, corr, PathLossSpec.unit(1))
        np.testing.assert_allclose(gram, dims.M * dims.N * np.eye(3), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("r_var_n_factor", [True, False])
    def test_matches_monte_carlo_draws(self, r_var_n_factor):
        # Oracle: the sample mean of G_k^H G_k over n draw_channels draws. An
        # entry conj(t_i) t_j r_i^H r_j has E|.|^2 <= 4 d^2, with d the exact
        # diagonal (t and R independent, Cauchy-Schwarz, and E|x|^4 =
        # 2 (E|x|^2)^2 for complex Gaussians), so each sample-mean entry has
        # rms error <= 2 d / sqrt(n). The tolerance is 6 of those. The n
        # draws are one stacked realization from the normals that n
        # successive draws from substream(66) take; the first is checked
        # against draw_channels itself.
        n = 20_000
        z = substream(66).standard_normal((n, _channel_normals(self.dims)))
        g = _channels_from_normals(self.dims, self.corr, self.loss, z, r_var_n_factor).g
        first = draw_channels(self.dims, self.corr, self.loss, substream(66), r_var_n_factor=r_var_n_factor)
        assert np.array_equal(first.g, g[0])
        sums = np.sum(g.conj().swapaxes(-1, -2) @ g, axis=0)
        for user in (1, 2):
            exact = reflected_gram(self.dims, self.corr, self.loss, user, r_var_n_factor)
            d = exact[0, 0].real
            np.testing.assert_allclose(sums[user - 1] / n, exact, rtol=0, atol=6 * 2 * d / np.sqrt(n))

    @pytest.mark.parametrize("user", [1, 2])
    def test_hermitian_positive_definite(self, user):
        gram = reflected_gram(self.dims, self.corr, self.loss, user)
        np.testing.assert_allclose(gram, gram.conj().T, rtol=0, atol=1e-14 * np.max(np.abs(gram)))
        assert np.min(np.linalg.eigvalsh(gram)) > 0


class TestEstimateSet:
    def test_reconstruction_consistency(self):
        # users 2..K's reflected channels rebuilt from lam and user 1's columns
        dims, chan = make_channels(3, 4, 2, 22)
        np.testing.assert_allclose(reflected_from_scaling(chan.lam, chan.g1), chan.g[1:], rtol=1e-12)


def test_every_public_estimator_has_a_package_caller():
    # the estimators are the functions the package runs: each public
    # module-level function of irsce.estimate is named in another module of
    # the package, re-exports in __init__.py aside
    source = Path(estimate.__file__)
    tree = ast.parse(source.read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    named = set()
    for path in source.parent.glob("*.py"):
        if path.name in ("__init__.py", source.name):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert public
    assert sorted(public - named) == []
