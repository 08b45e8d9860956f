import dataclasses
import re
from math import ceil

import numpy as np
import pytest

from irsce import (
    PhasePlan,
    ScenarioConfig,
    Schedule,
    SystemDims,
    benchmark_phase3_schedule,
    benchmark_total_pilots,
    concat_schedules,
    dft_block,
    min_tau3,
    min_total_pilots,
    phase1_pilots,
    phase2_reflections_dft,
    phase2_reflections_onoff,
    phase2_reflections_random,
    phase3_plan,
    phase3_schedule_noiseless,
    phase3_schedule_orthogonal_noisy,
    resolve_phase_plan,
    schedule_to_csv,
    validate_phase3_plan,
)
from irsce.errors import InfeasibleScheduleError
from irsce.schedule import Phase3Slot, phase2_pilots

# grid of dims used by the exhaustive combinatorial checks
GRID = [SystemDims(K, N, M) for K in range(2, 9) for N in range(1, 9) for M in range(1, 9)]

# dims where the leftover sets of two users in one shared slot overlap;
# the shared element is never switched on in that slot, so recovery is
# unaffected (see the noiseless end-to-end grid test), but the blanket
# pairwise-disjointness claim does not hold at these points.
DISJOINTNESS_EXCEPTIONS = {(5, 8, 5), (6, 8, 5), (7, 8, 5), (8, 8, 5)}

# dims in K <= 8, N, M <= 24 where some user's leftover window wraps past N
# and a shared slot would switch on a leftover that only a later slot
# recovers if that window were sorted rather than kept in wrap order
WRAPPED_WINDOW_DIMS = [
    (K, N, M) for K in (6, 7, 8) for N, M in ((12, 7), (17, 10), (19, 11), (22, 13), (24, 14))
] + [(8, 20, 11)]


def index_sets(plan):
    """Each user's (lambda1, lambda2) read from a minimum-length plan's
    slots: its targets in the first (K-1)*rho slots, rho = N // min(M, N),
    and its targets in the later, shared slots, in order."""
    K, N = plan.dims.K, plan.dims.N
    primary = (K - 1) * (N // min(plan.dims.M, N))

    def targets(slots):
        return tuple(tuple(n for s in slots for j, n in s.targets if j == k) for k in range(2, K + 1))

    return targets(plan.slots[:primary]), targets(plan.slots[primary:])


class TestPilotLengths:
    def test_min_tau3_example1(self):
        assert min_tau3(SystemDims(3, 3, 2)) == 3

    def test_min_tau3_single_user(self):
        assert min_tau3(SystemDims(1, 5, 3)) == 0

    def test_min_tau3_massive(self):
        assert min_tau3(SystemDims(8, 32, 32)) == 7

    def test_min_total(self):
        assert min_total_pilots(SystemDims(8, 32, 32)) == 47
        assert min_total_pilots(SystemDims(8, 32, 8)) == 68  # 8 + 32 + ceil(7*32/8)
        assert min_total_pilots(SystemDims(1, 4, 2)) == 5

    def test_benchmark_total(self):
        assert benchmark_total_pilots(SystemDims(8, 32, 16)) == 264
        assert benchmark_total_pilots(SystemDims(1, 4, 2)) == 5
        assert benchmark_total_pilots(SystemDims(3, 3, 2)) == 12


class TestPhasePlan:
    def test_minimum(self):
        cfg = ScenarioConfig(K=3, N=3, M=2, schemes=("proposed-noiseless",)).validate()
        plan = resolve_phase_plan(cfg, "proposed-noiseless")
        assert (plan.tau1, plan.tau2, plan.tau3) == (3, 3, 3)
        assert plan.total == 9

    def test_extra_policies(self):
        plan = PhasePlan(3, 3, 3)
        assert plan.with_extra(5, "phaseI") == PhasePlan(8, 3, 3)
        assert plan.with_extra(5, "phaseII") == PhasePlan(3, 8, 3)
        assert plan.with_extra(5, "even") == PhasePlan(4, 5, 5)
        assert plan.with_extra(4, "even") == PhasePlan(4, 5, 4)
        assert plan.with_extra(3, "even") == PhasePlan(4, 4, 4)

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            PhasePlan(1, 1, 1).with_extra(1, "phaseIV")


class TestPhase1Pilots:
    def test_two_user_rows(self):
        np.testing.assert_allclose(
            phase1_pilots(2, 2), np.array([[1, 1], [1, -1]], dtype=complex), atol=1e-14)

    def test_single(self):
        np.testing.assert_allclose(phase1_pilots(1, 1), np.array([[1.0]]), atol=0)

    @pytest.mark.parametrize("K,tau1", [(1, 1), (2, 2), (3, 5), (5, 6), (8, 8), (8, 11)])
    def test_gram(self, K, tau1):
        A = phase1_pilots(K, tau1)
        np.testing.assert_allclose(A @ A.conj().T, tau1 * np.eye(K), atol=1e-12 * tau1)

    def test_too_short(self):
        with pytest.raises(InfeasibleScheduleError):
            phase1_pilots(3, 2)


class TestPhase2Reflections:
    def test_dft_two(self):
        np.testing.assert_allclose(
            phase2_reflections_dft(2, 2), np.array([[1, 1], [1, -1]], dtype=complex), atol=1e-14)

    def test_dft_gram_rectangular(self):
        phi = phase2_reflections_dft(3, 4)
        np.testing.assert_allclose(phi @ phi.conj().T, 4 * np.eye(3), atol=1e-12 * 4)

    def test_dft_trivial(self):
        np.testing.assert_allclose(phase2_reflections_dft(1, 1), np.array([[1.0]]), atol=0)

    def test_onoff_identity(self):
        np.testing.assert_allclose(phase2_reflections_onoff(2, 2), np.eye(2), atol=0)

    def test_onoff_cycles(self):
        phi = phase2_reflections_onoff(3, 7)
        assert np.array_equal(np.argmax(np.abs(phi), axis=0), np.arange(7) % 3)
        assert np.array_equal(np.sum(np.abs(phi), axis=0), np.ones(7))

    def test_random_unit_modulus(self):
        phi = phase2_reflections_random(4, 6, seed=3)
        np.testing.assert_allclose(np.abs(phi), 1.0, atol=1e-12)

    def test_random_deterministic(self):
        assert np.array_equal(phase2_reflections_random(4, 6, 3), phase2_reflections_random(4, 6, 3))

    @pytest.mark.parametrize("builder", [phase2_reflections_dft, phase2_reflections_onoff])
    def test_too_short(self, builder):
        with pytest.raises(InfeasibleScheduleError):
            builder(4, 3)

    def test_dft_block_short(self):
        phi = dft_block(4, 2)
        assert phi.shape == (4, 2)
        np.testing.assert_allclose(np.abs(phi), 1.0, atol=1e-12)
        np.testing.assert_allclose(phi, phase2_reflections_dft(4, 4)[:, :2], atol=1e-14)


class TestPhase3Plan:
    def test_example1_sets(self):
        plan = phase3_plan(SystemDims(3, 3, 2))
        assert index_sets(plan) == (((2, 3), (1, 3)), ((1,), (2,)))
        assert [s.elements for s in plan.slots] == [(2, 3), (1, 3), (1, 2)]
        assert [s.users for s in plan.slots] == [(2,), (3,), (2, 3)]
        assert [s.targets for s in plan.slots[:2]] == [((2, 2), (2, 3)), ((3, 1), (3, 3))]
        assert plan.slots[2].targets == ((2, 1), (3, 2))
        assert [s.interference for s in plan.slots] == [(), (), ((2, 2), (3, 1))]

    def test_degenerate_for_wide_arrays(self):
        # M >= N: one slot per user with every element on, and no shared slot
        for K, N, M in [(3, 3, 3), (3, 3, 8)]:
            plan = phase3_plan(SystemDims(K, N, M))
            all_on = tuple(range(1, N + 1))
            assert [(s.users, s.elements) for s in plan.slots] == [((k,), all_on) for k in range(2, K + 1)]
        # a single user: nothing to recover, no slots
        plan = phase3_plan(SystemDims(1, 5, 2))
        assert plan.slots == ()

    def test_partition_grid(self):
        for dims in GRID:
            full = set(range(1, dims.N + 1))
            for l1, l2 in zip(*index_sets(phase3_plan(dims))):
                assert set(l1) | set(l2) == full
                assert not set(l1) & set(l2)

    def test_within_slot_disjointness_with_known_exceptions(self):
        # Pairwise disjointness of leftover sets inside every shared slot
        # holds everywhere on the grid except four enumerated dims, where
        # wrapped index windows collide; the colliding element is off in the
        # shared slot so identifiability survives (asserted separately).
        violations = set()
        for dims in GRID:
            plan = phase3_plan(dims)
            _, lambda2 = index_sets(plan)
            for slot in plan.slots:
                for a in slot.users:
                    for b in slot.users:
                        if a < b and set(lambda2[a - 2]) & set(lambda2[b - 2]):
                            violations.add((dims.K, dims.N, dims.M))
        assert violations == DISJOINTNESS_EXCEPTIONS

    def test_slot_interference_always_recoverable_grid(self):
        for dims in GRID:
            validate_phase3_plan(phase3_plan(dims))  # raises on violation

    def test_validator_catches_broken_order(self):
        plan = phase3_plan(SystemDims(3, 3, 2))
        # drop the one-user slots: the shared slot now precedes its inputs
        broken = dataclasses.replace(plan, slots=plan.slots[2:])
        with pytest.raises(InfeasibleScheduleError):
            validate_phase3_plan(broken)

    @pytest.mark.parametrize("corrupt,message", [
        # the shared slot ((2, 1), (3, 2)) switches element 1 on for both users
        (lambda slots: slots[:2] + (Phase3Slot(((2, 1), (3, 1))),), "slot targets repeat an element"),
        (lambda slots: slots + slots[:1], "duplicate recovery of (2, 2)"),
        (lambda slots: slots[:2], "plan does not cover every (user, element) exactly once"),
    ], ids=["repeated-element", "slot-twice", "shared-slot-dropped"])
    def test_validator_rejects_corrupt_slots(self, corrupt, message):
        plan = phase3_plan(SystemDims(3, 3, 2))
        broken = dataclasses.replace(plan, slots=corrupt(plan.slots))
        with pytest.raises(InfeasibleScheduleError, match=re.escape(message)):
            validate_phase3_plan(broken)

    def test_slot_count_matches_minimum(self):
        for dims in GRID:
            plan = phase3_plan(dims)
            assert len(plan.slots) == min_tau3(dims)

    @pytest.mark.parametrize("K,N,M", WRAPPED_WINDOW_DIMS)
    def test_wrapped_leftover_windows(self, K, N, M):
        dims = SystemDims(K, N, M)
        plan = phase3_plan(dims)
        validate_phase3_plan(plan)
        sched, _ = phase3_schedule_noiseless(dims)
        assert sched.tau == len(plan.slots) == min_tau3(dims)
        recovered = [t for s in plan.slots for t in s.targets]
        assert sorted(recovered) == [(k, n) for k in range(2, K + 1) for n in range(1, N + 1)]

    def test_leftover_window_keeps_wrap_order(self):
        _, lambda2 = index_sets(phase3_plan(SystemDims(6, 12, 7)))
        assert lambda2[6 - 2] == (9, 10, 11, 12, 1)


class TestPhase3NoiselessSchedule:
    def test_example1_patterns(self):
        sched, _ = phase3_schedule_noiseless(SystemDims(3, 3, 2))
        np.testing.assert_allclose(sched.pilots[1].real, [1, 0, 1], atol=0)
        np.testing.assert_allclose(sched.pilots[2].real, [0, 1, 1], atol=0)
        on = {(n + 1, i + 1) for n, i in zip(*np.nonzero(sched.reflections.real))}
        assert on == {(2, 1), (3, 1), (1, 2), (3, 2), (1, 3), (2, 3)}

    def test_wide_array_one_user_per_slot(self):
        sched, plan = phase3_schedule_noiseless(SystemDims(3, 2, 4))
        assert [(s.users, s.elements) for s in plan.slots] == [((2,), (1, 2)), ((3,), (1, 2))]
        np.testing.assert_allclose(sched.pilots.real, [[0, 0], [1, 0], [0, 1]], atol=0)
        np.testing.assert_allclose(sched.reflections.real, np.ones((2, 2)), atol=0)

    def test_modulus_constraint_grid(self):
        for dims in GRID[::7]:
            sched, _ = phase3_schedule_noiseless(dims)
            mod_a = np.abs(sched.pilots)
            mod_p = np.abs(sched.reflections)
            assert np.all((mod_a < 1e-9) | (np.abs(mod_a - 1) < 1e-9))
            assert np.all((mod_p < 1e-9) | (np.abs(mod_p - 1) < 1e-9))

    def test_cyclic_extension(self):
        dims = SystemDims(3, 3, 2)
        base, _ = phase3_schedule_noiseless(dims)
        ext, _ = phase3_schedule_noiseless(dims, tau3=5)
        assert ext.tau == 5
        np.testing.assert_allclose(ext.pilots[:, 3:], base.pilots[:, :2], atol=0)

    def test_below_minimum_rejected(self):
        with pytest.raises(InfeasibleScheduleError):
            phase3_schedule_noiseless(SystemDims(3, 3, 2), tau3=2)


    def test_equals_orthogonal_when_slot_width_divides_n(self):
        # with min(M, N) dividing N there are no leftovers, so the minimum
        # cycle is the orthogonal one: each user alone, M elements at a time
        count = 0
        for K in range(1, 7):
            for N in range(1, 13):
                for M in range(1, 13):
                    if N % min(M, N):
                        continue
                    dims = SystemDims(K, N, M)
                    noiseless, _ = phase3_schedule_noiseless(dims)
                    orthogonal, _ = phase3_schedule_orthogonal_noisy(dims)
                    assert np.array_equal(noiseless.pilots, orthogonal.pilots)
                    assert np.array_equal(noiseless.reflections, orthogonal.reflections)
                    count += 1
        assert count == 606


class TestOrthogonalNoisySchedule:
    def test_example_sequence(self):
        _, plan = phase3_schedule_orthogonal_noisy(SystemDims(3, 3, 2))
        assert plan.users == ((2,), (2,), (3,), (3,))
        assert plan.elements == ((1, 2), (3,), (1, 2), (3,))

    def test_square_single_slot(self):
        _, plan = phase3_schedule_orthogonal_noisy(SystemDims(2, 4, 4))
        assert plan.users == ((2,),)
        assert plan.elements == ((1, 2, 3, 4),)

    def test_per_user_cover_grid(self):
        for dims in GRID:
            _, plan = phase3_schedule_orthogonal_noisy(dims)
            per_user: dict[int, list[int]] = {}
            for (k,), delta in zip(plan.users, plan.elements):
                per_user.setdefault(k, []).extend(delta)
                assert len(delta) <= dims.M
            for k in range(2, dims.K + 1):
                assert sorted(per_user[k]) == list(range(1, dims.N + 1))

    def test_valid_plan_equal_to_minimum_when_width_divides_n(self):
        # each user resolves all its elements alone, ceil(N/M) consecutive
        # runs of them; with min(M, N) dividing N that is the minimum plan
        count = 0
        for K in range(1, 9):
            for N in range(1, 25):
                for M in range(1, 25):
                    dims = SystemDims(K, N, M)
                    _, plan = phase3_schedule_orthogonal_noisy(dims)
                    validate_phase3_plan(plan)
                    assert len(plan.slots) == (K - 1) * ceil(N / M)
                    if N % min(M, N) == 0:
                        assert plan == phase3_plan(dims)
                        count += 1
        assert count == 2880

    def test_cycle_repetition(self):
        # the plan is the base cycle of 4 slots; the schedule repeats it
        dims = SystemDims(3, 3, 2)
        sched, plan = phase3_schedule_orthogonal_noisy(dims, tau3=8)
        base, _ = phase3_schedule_orthogonal_noisy(dims)
        assert plan.users == ((2,), (2,), (3,), (3,))
        assert np.array_equal(sched.pilots, np.tile(base.pilots, 2))
        assert np.array_equal(sched.reflections, np.tile(base.reflections, 2))
        # a single user's cycle is empty: tau3 silent slots, as in the
        # noiseless schedule
        single = SystemDims(1, 4, 2)
        sched, plan = phase3_schedule_orthogonal_noisy(single, 3)
        assert plan.users == () and plan.elements == ()
        silent, _ = phase3_schedule_noiseless(single, 3)
        for s in (sched, silent):
            assert s.pilots.shape == (1, 3) and s.reflections.shape == (4, 3)
            assert not s.pilots.any() and not s.reflections.any()

    def test_below_minimum_rejected(self):
        with pytest.raises(InfeasibleScheduleError):
            phase3_schedule_orthogonal_noisy(SystemDims(3, 3, 2), tau3=3)

    # the minimum plan; repeats 3 and 2; 10 and 9
    @pytest.mark.parametrize("tau3", [6, 17, 57])
    def test_groups(self, tau3):
        # each base slot's columns in a tau3-slot schedule, in cycle order
        sched, plan = phase3_schedule_orthogonal_noisy(SystemDims(3, 5, 2), tau3)
        keys = [(2, (1, 2)), (2, (3, 4)), (2, (5,)), (3, (1, 2)), (3, (3, 4)), (3, (5,))]
        assert [((k,), delta) for k, delta in keys] == list(zip(plan.users, plan.elements))
        cols = plan.columns(tau3)
        assert [list(c) for c in cols] == [list(range(j, tau3, 6)) for j in range(6)]
        for (k,), delta, c in zip(plan.users, plan.elements, cols):
            on = [n - 1 for n in delta]
            assert np.all(sched.pilots[k - 1, c] == 1) and np.all(sched.reflections[on][:, c] == 1)
        _, single = phase3_schedule_orthogonal_noisy(SystemDims(1, 5, 2), tau3)
        assert single.columns(tau3) == ()


class TestStackedRankFullGrid:
    def test_noiseless_schedule_gives_full_rank_system(self):
        # SVD oracle across the whole K,N,M <= 8 grid: the stacked system
        # built from the minimum-length schedule has column rank (K-1)*N
        from irsce import stacked_system_matrix, substream

        rng = substream(2025)
        for dims in GRID:
            sched, _ = phase3_schedule_noiseless(dims)
            g1 = rng.standard_normal((dims.M, dims.N)) + 1j * rng.standard_normal((dims.M, dims.N))
            s = np.linalg.svd(stacked_system_matrix(sched, g1), compute_uv=False)
            need = (dims.K - 1) * dims.N
            assert s.size >= need and s[need - 1] > 1e-9 * s[0], f"rank deficient at {dims}"


class TestBenchmarkSchedule:
    def test_single_block_matches_phase2(self):
        dims = SystemDims(2, 4, 3)
        sched = benchmark_phase3_schedule(dims, 4)
        ref = Schedule(phase2_pilots(2, 4), phase2_reflections_dft(4, 4))
        np.testing.assert_allclose(sched.reflections, ref.reflections, atol=1e-14)
        np.testing.assert_allclose(sched.pilots[1], np.ones(4), atol=0)
        np.testing.assert_allclose(sched.pilots[0], np.zeros(4), atol=0)

    def test_block_boundaries(self):
        dims = SystemDims(4, 3, 2)
        tau2 = 3
        sched = benchmark_phase3_schedule(dims, tau2)
        assert sched.tau == (dims.K - 1) * tau2
        for k in range(2, dims.K + 1):
            block = slice((k - 2) * tau2, (k - 1) * tau2)
            np.testing.assert_allclose(sched.pilots[k - 1, block], np.ones(tau2), atol=0)
            other = np.delete(sched.pilots, k - 1, axis=0)[:, block]
            np.testing.assert_allclose(other, np.zeros_like(other), atol=0)


class TestScheduleType:
    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            Schedule(np.array([[0.5]]), np.array([[1.0]]))
        with pytest.raises(ValueError):
            Schedule(np.array([[1.0]]), np.array([[2.0]]))

    def test_concat(self):
        a = Schedule(np.ones((2, 3)), np.zeros((4, 3)))
        b = Schedule(np.zeros((2, 2)), np.ones((4, 2)))
        c = concat_schedules(a, b)
        assert c.tau == 5

    def test_csv_roundtrip(self, tmp_path):
        sched, _ = phase3_schedule_noiseless(SystemDims(3, 3, 2))
        path = tmp_path / "sched.csv"
        schedule_to_csv(sched, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + sched.tau
        header = lines[0].split(",")
        assert header[0] == "slot"
        assert header[1:7] == ["a1_re", "a1_im", "a2_re", "a2_im", "a3_re", "a3_im"]
        first = lines[1].split(",")
        rebuilt = complex(float(first[3]), float(first[4]))
        assert rebuilt == sched.pilots[1, 0]
