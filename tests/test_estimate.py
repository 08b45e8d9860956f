import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsce import (
    CorrelationSpec,
    LinkBudget,
    PathLossSpec,
    ScenarioConfig,
    Schedule,
    SystemDims,
    build_context,
    cancel_direct,
    complex_normal,
    draw_channels,
    estimate_lambda_priors,
    hermitian_sqrt,
    phase1_mmse,
    phase1_pilots,
    phase1_recover_noiseless,
    phase2_recover_noiseless,
    phase2_reflections_dft,
    phase3_lmmse,
    phase3_plan,
    phase3_recover_noiseless,
    phase3_schedule_noiseless,
    psi_phase2,
    psi_phase3,
    reflected_gram,
    simulate_received,
    stacked_system_matrix,
    substream,
)
from irsce.errors import DegenerateChannelError, NumericalConditioningError, PreconditionError
from irsce.estimate import (
    phase2_apply,
    phase2_weights,
    phase3_conditional_mse,
    phase3_lmmse_all_slots,
    phase3_slot_classes,
    prior_inverse,
    reflected_from_scaling,
)
from irsce.harness import OrthogonalLmmse, _scenario
from irsce.model import _as_generator, coloring_root, path_loss
from irsce.schedule import phase2_pilots, phase2_reflections_random, phase3_schedule_orthogonal_noisy
from irsce.selftest import _grid

BUDGET = LinkBudget(p=2.0, sigma2=0.25)


def make_channels(K, N, M, seed, c=0.3):
    dims = SystemDims(K, N, M)
    chan = draw_channels(dims, CorrelationSpec.uniform(c, K), PathLossSpec.unit(K), seed)
    return dims, chan


class TestSimulateReceived:
    def test_zero_pilots_zero_output(self):
        dims, chan = make_channels(2, 3, 2, 1)
        sched = Schedule(np.zeros((2, 4)), np.ones((3, 4)))
        y = simulate_received(chan, sched, BUDGET, noise_on=False)
        np.testing.assert_allclose(y, 0.0, atol=0)

    def test_irs_off_single_user(self):
        dims, chan = make_channels(3, 2, 4, 2)
        pilots = np.zeros((3, 1), dtype=complex)
        pilots[1, 0] = 1.0
        y = simulate_received(chan, Schedule(pilots, np.zeros((2, 1))), BUDGET, noise_on=False)
        np.testing.assert_allclose(y[:, 0], np.sqrt(BUDGET.p) * chan.h[1], rtol=1e-14)

    def test_matches_bruteforce(self):
        dims, chan = make_channels(3, 4, 2, 3)
        rng = substream(30)
        tau = 5
        pilots = np.where(rng.uniform(size=(3, tau)) < 0.6, 1, 0) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, (3, tau)))
        refl = np.where(rng.uniform(size=(4, tau)) < 0.6, 1, 0) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, (4, tau)))
        y = simulate_received(chan, Schedule(pilots, refl), BUDGET, noise_on=False)
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
        y = simulate_received(chan, Schedule(pilots, refl), BUDGET, noise_on=False)
        ref = np.sqrt(BUDGET.p) * (chan.h.T @ pilots + np.einsum("ki,ni,knm->mi", pilots, refl, chan.g))
        np.testing.assert_allclose(y, ref, rtol=1e-12)

    def test_dimension_mismatch(self):
        dims, chan = make_channels(2, 3, 2, 4)
        with pytest.raises(ValueError):
            simulate_received(chan, Schedule(np.ones((4, 2)), np.ones((3, 2))), BUDGET, noise_on=False)

    def test_noise_requires_rng(self):
        dims, chan = make_channels(2, 3, 2, 5)
        sched = Schedule(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            simulate_received(chan, sched, BUDGET, noise_on=True)


class TestPhase1Noiseless:
    def test_single_user_single_slot(self):
        dims, chan = make_channels(1, 1, 3, 6)
        P1 = phase1_pilots(1, 1)
        y = simulate_received(chan, Schedule(P1, np.zeros((1, 1))), BUDGET, noise_on=False)
        np.testing.assert_allclose(
            phase1_recover_noiseless(y, P1, BUDGET.p)[0], y[:, 0] / np.sqrt(BUDGET.p), rtol=1e-14)

    def test_exact_recovery(self):
        dims, chan = make_channels(3, 1, 4, 7)
        P1 = phase1_pilots(3, 3)
        y = simulate_received(chan, Schedule(P1, np.zeros((1, 3))), BUDGET, noise_on=False)
        h_hat = phase1_recover_noiseless(y, P1, BUDGET.p)
        assert np.max(np.abs(h_hat - chan.h)) < 1e-10 * np.max(np.abs(chan.h))

    def test_power_invariance(self):
        dims, chan = make_channels(2, 1, 3, 8)
        P1 = phase1_pilots(2, 2)
        hi = LinkBudget(p=4 * BUDGET.p, sigma2=BUDGET.sigma2)
        y1 = simulate_received(chan, Schedule(P1, np.zeros((1, 2))), BUDGET, noise_on=False)
        y2 = simulate_received(chan, Schedule(P1, np.zeros((1, 2))), hi, noise_on=False)
        np.testing.assert_allclose(
            phase1_recover_noiseless(y1, P1, BUDGET.p),
            phase1_recover_noiseless(y2, P1, hi.p), rtol=1e-12)

    def test_nonorthogonal_rejected(self):
        with pytest.raises(PreconditionError):
            phase1_recover_noiseless(np.zeros((2, 2)), np.ones((2, 2)), 1.0)


class TestPhase1Mmse:
    def test_zero_noise_limit(self):
        dims, chan = make_channels(3, 1, 4, 9)
        P1 = phase1_pilots(3, 3)
        y = simulate_received(chan, Schedule(P1, np.zeros((1, 3))), BUDGET, noise_on=False)
        h_exact = phase1_recover_noiseless(y, P1, BUDGET.p)
        h_mmse, _ = phase1_mmse(y, P1, BUDGET.p, 1e-15, np.ones(3))
        np.testing.assert_allclose(h_mmse, h_exact, rtol=1e-9)

    def test_closed_form_spot_value(self):
        # M=1, beta=1, p=1, tau1=1, sigma2=1 -> mse = 0.5
        _, mse = phase1_mmse(np.zeros((1, 1)), phase1_pilots(1, 1), 1.0, 1.0, np.ones(1))
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
            h_hat, mse = phase1_mmse(y, P1, p, sigma2, beta)
            sq += np.sum(np.abs(h_hat - h) ** 2, axis=1)
        emp = sq / trials
        np.testing.assert_allclose(emp, mse, rtol=0.03)


class TestCancelDirect:
    def test_zero_pilots_noop(self):
        y = substream(41).standard_normal((3, 4)) + 0j
        out = cancel_direct(y, np.ones((2, 3), dtype=complex), np.zeros((2, 4)), 2.0)
        np.testing.assert_allclose(out, y, atol=0)

    def test_perfect_estimates_leave_reflected_term(self):
        dims, chan = make_channels(2, 3, 2, 10)
        refl = phase2_reflections_dft(3, 3)
        sched = Schedule(phase2_pilots(2, 3), refl)
        y = simulate_received(chan, sched, BUDGET, noise_on=False)
        ybar = cancel_direct(y, chan.h, sched.pilots, BUDGET.p)
        expected = np.sqrt(BUDGET.p) * chan.g1 @ refl  # a_1 = 1 throughout
        np.testing.assert_allclose(ybar, expected, atol=1e-12 * np.max(np.abs(expected)))

    def test_missing_estimate_rejected(self):
        with pytest.raises(PreconditionError):
            cancel_direct(np.zeros((2, 3)), np.zeros((1, 2)), np.ones((2, 3)), 1.0)


class TestPhase2Noiseless:
    def test_trivial_single_element(self):
        dims, chan = make_channels(1, 1, 3, 11)
        refl = phase2_reflections_dft(1, 1)
        sched = Schedule(phase2_pilots(1, 1), refl)
        y = simulate_received(chan, sched, BUDGET, noise_on=False)
        ybar = cancel_direct(y, chan.h, sched.pilots, BUDGET.p)
        np.testing.assert_allclose(
            phase2_recover_noiseless(ybar, refl, BUDGET.p)[:, 0],
            ybar[:, 0] / np.sqrt(BUDGET.p), rtol=1e-13)

    @pytest.mark.parametrize("tau2", [3, 5])
    def test_exact_recovery(self, tau2):
        dims, chan = make_channels(2, 3, 4, 12)
        refl = phase2_reflections_dft(3, tau2)
        sched = Schedule(phase2_pilots(2, tau2), refl)
        y = simulate_received(chan, sched, BUDGET, noise_on=False)
        ybar = cancel_direct(y, chan.h, sched.pilots, BUDGET.p)
        g1_hat = phase2_recover_noiseless(ybar, refl, BUDGET.p)
        assert np.max(np.abs(g1_hat - chan.g1)) < 1e-10 * np.max(np.abs(chan.g1))

    def test_rank_deficient_rejected(self):
        refl = np.ones((2, 4), dtype=complex)  # two identical rows
        with pytest.raises(PreconditionError):
            phase2_recover_noiseless(np.zeros((3, 4)), refl, 1.0)


class TestPhase2Lmmse:
    def test_algebraic_simplification(self):
        # perfect Phase I, C = c*I, DFT reflections:
        # mse = N / (p*tau2/(M*sigma2) + 1/c)
        M, N, tau2, p, sigma2, c = 3, 4, 6, 1.7, 0.35, 0.8
        refl = phase2_reflections_dft(N, tau2)
        psi = M * sigma2 * np.eye(tau2)
        w = phase2_weights(refl, p, np.linalg.inv(psi), prior_inverse(c * np.eye(N)))
        np.testing.assert_allclose(w.mse, N / (p * tau2 / (M * sigma2) + 1 / c), rtol=1e-10)

    def test_zero_noise_limit_reduces_to_exact(self):
        dims, chan = make_channels(2, 3, 4, 13)
        refl = phase2_reflections_dft(3, 3)
        sched = Schedule(phase2_pilots(2, 3), refl)
        y = simulate_received(chan, sched, BUDGET, noise_on=False)
        ybar = cancel_direct(y, chan.h, sched.pilots, BUDGET.p)
        sigma2 = 1e-12 * BUDGET.p
        psi = psi_phase2(3, 4, BUDGET.p, sigma2, 1.0, 10**9)
        cbi = np.eye(3) * float(np.mean(np.abs(chan.g1) ** 2) * 4)
        w = phase2_weights(refl, BUDGET.p, np.linalg.inv(psi), prior_inverse(cbi))
        g_lmmse = phase2_apply(ybar, w, BUDGET.p)
        g_exact = phase2_recover_noiseless(ybar, refl, BUDGET.p)
        np.testing.assert_allclose(g_lmmse, g_exact, rtol=1e-6, atol=1e-9 * np.max(np.abs(g_exact)))

    def test_monte_carlo_oracle_synthetic_moments(self):
        # G rows iid with exact Gram c*I and white effective noise: empirical
        # squared error over 1e4 trials matches the closed form within 3%
        M, N, tau2, p, sigma2, c = 2, 3, 4, 1.0, 0.5, 0.9
        refl = phase2_reflections_dft(N, tau2)
        psi = M * sigma2 * np.eye(tau2)
        C = c * np.eye(N)
        w = phase2_weights(refl, p, np.linalg.inv(psi), prior_inverse(C))
        rng = substream(42)
        trials = 10_000
        sq = 0.0
        for _ in range(trials):
            G = complex_normal(rng, (M, N), c / M)
            z = complex_normal(rng, (M, tau2), sigma2)
            ybar = np.sqrt(p) * G @ refl + z
            sq += float(np.sum(np.abs(phase2_apply(ybar, w, p) - G) ** 2))
        np.testing.assert_allclose(sq / trials, w.mse, rtol=0.03)

    def test_weights_then_apply_equal_the_formula(self):
        # the hoisted weights applied to a block give exactly the estimate and
        # MSE of the written-out formula with H = Phi^H:
        # sqrt(p) Ybar Psi^-1 H (p H^H Psi^-1 H + C^-1)^-1
        M, N, tau2, p = 3, 4, 6, 1.7
        refl = phase2_reflections_random(N, tau2, 43)
        psi_inv = np.linalg.inv(psi_phase2(tau2, M, p, 0.35, 1.2, 3))
        X = complex_normal(substream(44), (N, N), 1.0)
        C = X @ X.conj().T + 0.5 * np.eye(N)
        ybar = complex_normal(substream(45), (M, tau2), 1.0)
        H = refl.conj().T
        psi_inv_H = psi_inv @ H
        cov = np.linalg.inv(p * H.conj().T @ psi_inv_H + np.linalg.inv(C))
        w = phase2_weights(refl, p, psi_inv, prior_inverse(C))
        assert np.array_equal(phase2_apply(ybar, w, p), np.sqrt(p) * ybar @ psi_inv_H @ cov)
        assert w.mse == float(np.trace(cov).real)

    def test_psi_phase2_form(self):
        psi = psi_phase2(3, 4, 2.0, 0.5, 1.5, 2)
        coeff = 2.0 * 4 * 1.5 * 0.5 / (1.5 * 2.0 * 2 + 0.5)
        np.testing.assert_allclose(psi, coeff * np.ones((3, 3)) + 4 * 0.5 * np.eye(3), rtol=1e-12)


class TestPhase3Noiseless:
    def test_example1_slot_by_slot(self):
        dims, chan = make_channels(3, 3, 2, 14)
        sched, plan = phase3_schedule_noiseless(dims)
        y = simulate_received(chan, sched, BUDGET, noise_on=False)
        ybar = cancel_direct(y, chan.h, sched.pilots, BUDGET.p)
        sp = np.sqrt(BUDGET.p)
        g = chan.g1
        # per-slot inverse solutions as an independent oracle
        lam22, lam23 = np.linalg.inv(np.stack([g[:, 1], g[:, 2]], axis=1)) @ ybar[:, 0] / sp
        lam31, lam33 = np.linalg.inv(np.stack([g[:, 0], g[:, 2]], axis=1)) @ ybar[:, 1] / sp
        y3 = ybar[:, 2] / sp - lam23 * 0 - (lam22 * g[:, 1] + lam31 * g[:, 0])
        lam21, lam32 = np.linalg.inv(np.stack([g[:, 0], g[:, 1]], axis=1)) @ y3
        lam = phase3_recover_noiseless(ybar, dims, plan, g, BUDGET.p)
        np.testing.assert_allclose(lam[0], [lam21, lam22, lam23], rtol=1e-9)
        np.testing.assert_allclose(lam[1], [lam31, lam32, lam33], rtol=1e-9)
        np.testing.assert_allclose(lam, chan.lam, rtol=1e-9)

    def test_two_user_wide_array(self):
        dims, chan = make_channels(2, 3, 5, 15)
        sched, plan = phase3_schedule_noiseless(dims)
        assert sched.tau == 1
        y = simulate_received(chan, sched, BUDGET, noise_on=False)
        ybar = cancel_direct(y, chan.h, sched.pilots, BUDGET.p)
        lam = phase3_recover_noiseless(ybar, dims, plan, chan.g1, BUDGET.p)
        oracle = np.linalg.pinv(chan.g1) @ ybar[:, 0] / np.sqrt(BUDGET.p)
        np.testing.assert_allclose(lam[0], oracle, rtol=1e-9)
        np.testing.assert_allclose(lam, chan.lam, rtol=1e-9)

    @pytest.mark.parametrize("K,N,M", [(2, 4, 2), (4, 5, 3), (5, 3, 3), (3, 8, 3), (5, 8, 5)])
    def test_small_grid_exact(self, K, N, M):
        dims, chan = make_channels(K, N, M, 16 + K + N + M)
        sched, plan = phase3_schedule_noiseless(dims)
        y = simulate_received(chan, sched, BUDGET, noise_on=False)
        ybar = cancel_direct(y, chan.h, sched.pilots, BUDGET.p)
        lam = phase3_recover_noiseless(ybar, dims, plan, chan.g1, BUDGET.p)
        assert np.max(np.abs(lam - chan.lam) / np.abs(chan.lam)) < 1e-9

    def test_extra_slots_idempotent(self):
        dims, chan = make_channels(3, 3, 2, 17)
        sched, plan = phase3_schedule_noiseless(dims, tau3=5)
        y = simulate_received(chan, sched, BUDGET, noise_on=False)
        ybar = cancel_direct(y, chan.h, sched.pilots, BUDGET.p)
        lam = phase3_recover_noiseless(ybar, dims, plan, chan.g1, BUDGET.p)
        np.testing.assert_allclose(lam, chan.lam, rtol=1e-9)

    def test_degenerate_channel_rejected(self):
        dims = SystemDims(2, 2, 2)
        plan = phase3_plan(dims)
        g1 = np.ones((2, 2), dtype=complex)  # identical columns, rank 1
        with pytest.raises(DegenerateChannelError):
            phase3_recover_noiseless(np.ones((2, 1), dtype=complex), dims, plan, g1, 1.0)


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
    @pytest.mark.parametrize("grid", [[SystemDims(3, 5, 2)], [SystemDims(4, 16, 4)], list(_grid(4))],
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
        dims, chan = make_channels(2, 3, 4, 20)
        G = chan.g1
        p = 1.1
        rng = substream(52)
        y = complex_normal(rng, (4, 2), 1.0)
        psi = psi_phase3(p, 0.3, 0.9, 2, exp_corr(0.4, 4))
        clam = 0.7 * np.eye(3)
        fused, fused_mse = phase3_lmmse(y, G, p, psi, clam)
        G_s = np.vstack([G, G])
        psi_s = np.block([[psi, np.zeros((4, 4))], [np.zeros((4, 4)), psi]])
        stacked, stacked_mse = phase3_lmmse(y.T.reshape(-1), G_s, p, psi_s, clam)
        np.testing.assert_allclose(fused, stacked, rtol=1e-10)
        np.testing.assert_allclose(fused_mse, stacked_mse, rtol=1e-10)

    def test_monte_carlo_conditional_oracle(self):
        # fixed G, (lam, noise) drawn from the modeled second moments:
        # empirical conditional MSE matches the trace closed form within 3%
        dims, chan = make_channels(2, 3, 4, 21)
        G = chan.g1 / np.max(np.abs(chan.g1))
        p, sigma2, tau1, beta = 1.4, 0.4, 3, 0.8
        psi = psi_phase3(p, sigma2, beta, tau1, exp_corr(0.5, 4))
        clam = np.array([[1.0, 0.2, 0.0], [0.2, 0.9, 0.1], [0.0, 0.1, 1.2]], dtype=complex)
        L_lam, L_psi = hermitian_sqrt(clam), hermitian_sqrt(psi)
        rng = substream(53)
        trials = 10_000
        sq = 0.0
        mse = None
        for _ in range(trials):
            lam = L_lam @ complex_normal(rng, (3,), 1.0)
            z = L_psi @ complex_normal(rng, (4,), 1.0)
            y = np.sqrt(p) * G @ lam + z
            lam_hat, mse = phase3_lmmse(y, G, p, psi, clam)
            sq += float(np.sum(np.abs(lam_hat - lam) ** 2))
        np.testing.assert_allclose(sq / trials, mse, rtol=0.03)

    def test_psi_phase3_form(self):
        p, sigma2, beta, tau1 = 2.0, 0.5, 1.5, 3
        CB = exp_corr(0.3, 2)
        psi = psi_phase3(p, sigma2, beta, tau1, CB)
        denom = beta * p * tau1 + sigma2
        expected = (beta * p * sigma2**2 / denom) * CB + (
            (beta * p) ** 2 * tau1 * sigma2 / denom + sigma2) * np.eye(2)
        np.testing.assert_allclose(psi, expected, rtol=1e-12)


class TestStackedPhase3:
    """The per-class stacked Phase-III kernels against a per-group
    `phase3_lmmse` loop. K=3, N=5, M=2 gives each user subsets of sizes
    2, 2 and 1, so every plan has two size classes."""

    dims = SystemDims(3, 5, 2)
    p = 1.3

    def _inputs(self, tau3):
        _, plan = phase3_schedule_orthogonal_noisy(self.dims, tau3)
        rng = substream(70, tau3)
        psi = {k: psi_phase3(self.p, 0.4, 0.5 + k / 10, 3, exp_corr(0.3 + 0.2j, 2)) for k in (2, 3)}
        priors = {}
        for key in dict.fromkeys(zip(plan.users, plan.elements)):
            X = complex_normal(rng, (len(key[1]),) * 2, 1.0)
            priors[key] = X @ X.conj().T + 0.5 * np.eye(len(key[1]))
        g1 = complex_normal(rng, (2, 5), 1.0)
        ybar = complex_normal(rng, (2, tau3), 1.0)
        return plan, psi, priors, g1, ybar

    def _loop(self, ybar, plan, g1, p, psi, priors):
        groups = {}
        for i, key in enumerate(zip(plan.users, plan.elements)):
            groups.setdefault(key, []).append(i)
        lam = np.zeros((2, 5), dtype=complex)
        total = 0.0
        for (k, delta), cols in groups.items():
            sel = [n - 1 for n in delta]
            lam_hat, mse = phase3_lmmse(ybar[:, cols], g1[:, sel], p, psi[k], priors[(k, delta)])
            lam[k - 2, sel] = lam_hat
            total += mse
        return lam, total

    # minimum plan; repeats 3 and 2 (extra Phase-III slots); 9 and 10 repeats
    @pytest.mark.parametrize("tau3", [6, 17, 57])
    def test_estimator_matches_per_group_loop(self, tau3):
        plan, psi, priors, g1, ybar = self._inputs(tau3)
        classes = phase3_slot_classes(plan, psi, priors)
        assert {c.elements.shape[1] for c in classes} == {1, 2}
        lam = phase3_lmmse_all_slots(ybar, plan, g1, self.p, classes)
        lam_ref, _ = self._loop(ybar, plan, g1, self.p, psi, priors)
        np.testing.assert_allclose(lam, lam_ref, rtol=1e-12)

    @pytest.mark.parametrize("tau3", [6, 17, 57])
    def test_conditional_mse_matches_per_group_loop(self, tau3):
        plan, psi, priors, g1, ybar = self._inputs(tau3)
        classes = phase3_slot_classes(plan, psi, priors)
        _, mse_ref = self._loop(ybar, plan, g1, self.p, psi, priors)
        np.testing.assert_allclose(phase3_conditional_mse(g1, self.p, classes), mse_ref, rtol=1e-12)

    # minimum plan; repeats 3 and 2; 9 and 10 repeats
    @pytest.mark.parametrize("tau3", [6, 17, 57])
    def test_kernels_match_solve_oracle(self, tau3):
        plan, psi, priors, g1, ybar = self._inputs(tau3)
        assert_match_solve_oracle(ybar, plan, g1, self.p, psi, priors, phase3_slot_classes(plan, psi, priors))

    def test_kernels_match_solve_oracle_ill_conditioned(self):
        # strongly correlated BS antennas and 64-element subsets: cond(A) is about 6e5
        cfg = replace(ScenarioConfig(), K=3, N=64, M=64, corr_bs_direct=0.99, prior_draws=1000).validate()
        ctx = build_context(cfg, "proposed-lmmse")
        strat, p = ctx.phase3, ctx.budget.p
        psi3, priors = OrthogonalLmmse.moments(_scenario(cfg, "proposed-lmmse", 0))
        chan = draw_channels(ctx.dims, ctx.corr, ctx.loss, 80)
        ybar3 = simulate_received(chan, strat.sched, ctx.budget, rng=substream(81))
        assert_match_solve_oracle(ybar3, strat.plan, chan.g1, p, psi3, priors, strat.classes)

    def test_singular_noise_covariance_rejected(self):
        plan, psi, priors, _, _ = self._inputs(6)
        psi[3] = np.ones((2, 2), dtype=complex)
        with pytest.raises(NumericalConditioningError, match="Phase-III noise covariance"):
            phase3_slot_classes(plan, psi, priors)
        with pytest.raises(NumericalConditioningError, match="Phase-III noise covariance"):
            phase3_lmmse(np.ones(2), np.eye(2), self.p, psi[3], np.eye(2))

    @pytest.mark.parametrize("mode", ["estimated", "perfect"])
    def test_strategy_matches_per_group_loop(self, mode):
        # the proposed scheme's Phase-III step with repeated slots, in both
        # phase3_g1 modes: estimates from the chosen columns, e3_pred from the
        # true ones
        cfg = replace(ScenarioConfig(), K=3, N=5, M=2, tau3=17, prior_draws=1000,
                      phase3_g1=mode).validate()
        ctx = build_context(cfg, "proposed-lmmse")
        strat, p = ctx.phase3, ctx.budget.p
        psi3, priors = OrthogonalLmmse.moments(_scenario(cfg, "proposed-lmmse", 0))
        chan = draw_channels(ctx.dims, ctx.corr, ctx.loss, 74)
        g1_hat = chan.g1 * (1.0 + 0.01 * complex_normal(substream(75), chan.g1.shape, 1.0))
        ybar3 = simulate_received(chan, strat.sched, ctx.budget, rng=substream(76))
        lam, _, e3_pred = strat.estimate(ybar3, chan, g1_hat, p)
        source = chan.g1 if mode == "perfect" else g1_hat
        lam_ref, _ = self._loop(ybar3, strat.plan, source, p, psi3, priors)
        _, e3_ref = self._loop(ybar3, strat.plan, chan.g1, p, psi3, priors)
        np.testing.assert_allclose(lam, lam_ref, rtol=1e-12)
        np.testing.assert_allclose(e3_pred, e3_ref, rtol=1e-12)


def solve_oracle(ybar, plan, g1, p, psi, priors):
    """The Phase-III LMMSE written out per (user, elements) slot group, with
    a solve against Psi in place of its inverse:
    A = R p G^H Psi^-1 G + C_lam^-1, lam_hat = sqrt(p) A^-1 G^H Psi^-1 sum_r y_r.

    Returns (k, elements, lam_hat, A^-1, rtol) per group. rtol is fixed from
    float64 eps and the condition numbers alone: forming Psi^-1 G perturbs A
    by at most about M cond(Psi) eps relative to ||A|| (C_lam^-1 is positive
    definite, so ||R p G^H Psi^-1 G|| <= ||A||), the d x d inverse or solve
    adds d eps, and cond(A) amplifies both; the factor 2 covers the error of
    the oracle itself."""
    eps = np.finfo(float).eps
    groups = {}
    for i, key in enumerate(zip(plan.users, plan.elements)):
        groups.setdefault(key, []).append(i)
    out = []
    for (k, delta), cols in groups.items():
        sel = [n - 1 for n in delta]
        G = g1[:, sel]
        psi_inv_G = np.linalg.solve(psi[k], G)
        A = len(cols) * p * G.conj().T @ psi_inv_G + np.linalg.inv(priors[(k, delta)])
        A_inv = np.linalg.inv(A)
        lam_hat = np.sqrt(p) * A_inv @ (psi_inv_G.conj().T @ ybar[:, cols].sum(axis=1))
        M, d = G.shape
        rtol = 2 * (M * np.linalg.cond(psi[k]) + d) * np.linalg.cond(A) * eps
        out.append((k, sel, lam_hat, A_inv, rtol))
    return out


def assert_match_solve_oracle(ybar, plan, g1, p, psi, priors, classes):
    """`phase3_lmmse_all_slots` and `phase3_conditional_mse` against
    `solve_oracle`, norm-wise per group."""
    ref = solve_oracle(ybar, plan, g1, p, psi, priors)
    lam = phase3_lmmse_all_slots(ybar, plan, g1, p, classes)
    for k, sel, lam_ref, _, rtol in ref:
        assert np.linalg.norm(lam[k - 2, sel] - lam_ref) <= rtol * np.linalg.norm(lam_ref)
    mse_ref = sum(float(np.trace(A_inv).real) for _, _, _, A_inv, _ in ref)
    rtol = max(r for *_, r in ref)
    assert abs(phase3_conditional_mse(g1, p, classes) - mse_ref) <= rtol * mse_ref


def exp_corr(c, n):
    from irsce import exp_correlation_matrix

    return exp_correlation_matrix(c, n)


def ref_lambda_priors(dims, corr, loss, slots, trials, cap_scale=10.0, seed=0):
    """The former `estimate_lambda_priors`: every user's t drawn and held at
    once, each complex normal built as scale * (re + 1j * im)."""
    K, N = dims.K, dims.N
    _, beta_iu, _ = path_loss(loss)
    rng = _as_generator(seed)
    t = np.empty((trials, K, N), dtype=complex)
    for k in range(K):
        z = np.sqrt(beta_iu[k] / 2.0) * (rng.standard_normal((trials, N)) + 1j * rng.standard_normal((trials, N)))
        t[:, k, :] = z @ coloring_root(corr.irs_user[k], N).T
    lam = t[:, 1:, :] / t[:, :1, :]
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
    return SystemDims(K, N, 1), corr, loss, slots, cap_scale, draw(st.integers(0, 2**32 - 1))


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(prior_cases())
    def test_equals_former_implementation(self, case):
        dims, corr, loss, slots, cap_scale, seed = case
        try:
            want = ref_lambda_priors(dims, corr, loss, slots, 1000, cap_scale=cap_scale, seed=seed)
        except ValueError:
            with pytest.raises(PreconditionError):
                estimate_lambda_priors(dims, corr, loss, slots, trials=1000, cap_scale=cap_scale, seed=seed)
            return
        got = estimate_lambda_priors(dims, corr, loss, slots, trials=1000, cap_scale=cap_scale, seed=seed)
        assert got.keys() == want.keys()
        for key, C in want.items():
            assert got[key].tobytes() == C.tobytes(), key

    def test_peak_memory_at_default_dims(self):
        # K = 8, N = 32, 10 000 draws: the (draws, K-1, N) ratios take 35 MiB;
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
        # rms error <= 2 d / sqrt(n). The tolerance is 6 of those.
        n = 20_000
        rng = substream(66)
        sums = np.zeros((2, 3, 3), dtype=complex)
        for _ in range(n):
            g = draw_channels(self.dims, self.corr, self.loss, rng, r_var_n_factor=r_var_n_factor).g
            sums += g.conj() @ g.transpose(0, 2, 1)
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
