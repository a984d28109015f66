import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coevo.dynamics as dynamics_module
from coevo.dynamics import (
    SCHEDULE_KINDS,
    RevisionSchedule,
    Trajectory,
    classify_state,
    is_fixed_point,
    make_schedule,
    potential,
    potential_matrix,
    potential_matrix_is_positive_definite,
    potential_quadratic,
    run,
    step,
)
from coevo.equilibria import verify_nash
from coevo.model import ModelParams, Network, SystemState
from coevo.networks import complete_network, grid_network, random_symmetric_network, ring_network
from instances import (
    convergence_instance,
    edge_params,
    random_interior_params,
    random_row_stochastic,
    random_state,
    tied_params,
)


class TestSchedules:
    def test_synchronous(self):
        sched = make_schedule("synchronous", 4)
        assert sched.T == 1
        it = sched.sets()
        assert next(it) == (0, 1, 2, 3)
        assert next(it) == (0, 1, 2, 3)

    def test_round_robin_cycles(self):
        sched = make_schedule("round-robin", 3)
        assert sched.T == 3
        it = sched.sets()
        assert [next(it) for _ in range(7)] == [(0,), (1,), (2,), (0,), (1,), (2,), (0,)]

    def test_shuffled_rounds_blocks_are_permutations(self):
        sched = make_schedule("shuffled-rounds", 3, seed=7)
        assert sched.T == 5
        it = sched.sets()
        flat = [next(it)[0] for _ in range(30)]
        for block_start in range(0, 30, 3):
            assert sorted(flat[block_start : block_start + 3]) == [0, 1, 2]

    def test_shuffled_rounds_every_window_covers(self):
        sched = make_schedule("shuffled-rounds", 3, seed=7)
        it = sched.sets()
        flat = [next(it)[0] for _ in range(120)]
        for t in range(len(flat) - sched.T):
            assert set(flat[t : t + sched.T]) == {0, 1, 2}

    def test_sets_replay_identically(self):
        sched = make_schedule("shuffled-rounds", 5, seed=42)
        a = [next(iter_a) for iter_a in [sched.sets()] for _ in range(20)]
        b_it = sched.sets()
        b = [next(b_it) for _ in range(20)]
        assert a == b

    def test_iid_random_not_compliant(self):
        sched = make_schedule("iid-random", 4, seed=1)
        assert sched.T is None
        assert sched.stability_window == 16
        it = sched.sets()
        draws = {next(it)[0] for _ in range(200)}
        assert draws == {0, 1, 2, 3}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown schedule kind"):
            make_schedule("alternating", 4)

    @pytest.mark.parametrize("kind, n", [("alternating", 4), ("round-robin", 1), (["synchronous"], 4)])
    def test_direct_construction_checks_itself(self, kind, n):
        with pytest.raises(ValueError, match="unknown schedule kind|schedules need n >= 2"):
            RevisionSchedule(kind, n)

    @pytest.mark.parametrize(
        "n, seed, message",
        [
            (2.5, 0, "schedule n must be an integer, got 2.5"),
            (True, 0, "schedule n must be an integer, got True"),
            ("4", 0, "schedule n must be an integer, got '4'"),
            (4, -1, "schedule seed must be a non-negative integer, got -1"),
            (4, 1.5, "schedule seed must be a non-negative integer, got 1.5"),
            (4, 2.0, "schedule seed must be a non-negative integer, got 2.0"),
            (4, True, "schedule seed must be a non-negative integer, got True"),
        ],
    )
    @pytest.mark.parametrize("build", [RevisionSchedule, make_schedule])
    def test_non_integer_fields_are_named(self, build, n, seed, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build("shuffled-rounds", n, seed)

    def test_only_make_schedule_reads_a_missing_seed_as_zero(self):
        assert make_schedule("iid-random", 4, None).seed == 0
        with pytest.raises(ValueError, match="schedule seed must be a non-negative integer, got None"):
            RevisionSchedule("iid-random", 4, None)

    def test_numpy_integers_are_integers(self):
        sched = RevisionSchedule("shuffled-rounds", np.int64(4), np.uint32(7))
        assert sched == make_schedule("shuffled-rounds", 4, 7)
        assert list(itertools.islice(sched.sets(), 8)) == list(
            itertools.islice(make_schedule("shuffled-rounds", 4, 7).sets(), 8)
        )

    def test_fields_are_kind_n_and_seed(self):
        sched = RevisionSchedule("round-robin", 3)
        assert (sched.kind, sched.n, sched.seed) == ("round-robin", 3, 0)
        assert sched.T == sched.stability_window == 3
        assert sched == make_schedule("round-robin", 3)
        with pytest.raises(TypeError):
            RevisionSchedule("round-robin", 3, 0, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SCHEDULE_KINDS), st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_sets_are_contiguous_and_windows_cover(self, kind, n, seed):
        # run reads every set as one slice, so each must be one player or everyone
        sched = make_schedule(kind, n, seed=seed)
        it = sched.sets()
        sets = [next(it) for _ in range(3 * (sched.T or n) + n)]
        for active in sets:
            assert len(active) in (1, n)
            assert active == tuple(range(active[0], active[-1] + 1))
        if sched.T is not None:
            for t in range(len(sets) - sched.T + 1):
                covered = {i for active in sets[t : t + sched.T] for i in active}
                assert covered == set(range(n))

    def test_compliant_kinds_have_windows(self):
        for kind, expected_T in (("synchronous", 1), ("round-robin", 6), ("shuffled-rounds", 11)):
            sched = make_schedule(kind, 6, seed=0)
            assert sched.T is not None
            assert sched.T == expected_T


class TestStep:
    def test_synchronous_collapse_from_cooperation(self, params_r2, complete4):
        out = step(SystemState.all_cooperation(4), range(4), params_r2, complete4)
        np.testing.assert_array_equal(out.x, 0)
        np.testing.assert_allclose(out.y, 0.5, atol=1e-12)

    def test_all_defection_is_stationary(self, params_r2, complete4):
        z = SystemState.all_defection(4)
        assert step(z, range(4), params_r2, complete4) == z

    def test_single_activation(self, params_r38, complete4):
        state = SystemState(np.zeros(4, dtype=np.int64), np.ones(4))
        out = step(state, [0], params_r38, complete4)
        assert out.x[0] == 1
        assert out.y[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_array_equal(out.x[1:], 0)
        np.testing.assert_array_equal(out.y[1:], 1.0)

    def test_inactive_coordinates_bit_identical(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 8))
            params = random_interior_params(rng, n)
            net = random_row_stochastic(rng, n)
            state = random_state(rng, n)
            active = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            out = step(state, active, params, net)
            inactive = np.setdiff1d(np.arange(n), active)
            np.testing.assert_array_equal(out.x[inactive], state.x[inactive])
            np.testing.assert_array_equal(out.y[inactive], state.y[inactive])

    def test_empty_active_set_is_identity(self, params_r2, complete4):
        state = SystemState(np.array([1, 0, 1, 0]), np.array([0.2, 0.4, 0.6, 0.8]))
        assert step(state, [], params_r2, complete4) is state

    def test_out_of_range_active_rejected(self, params_r2, complete4):
        with pytest.raises(IndexError):
            step(SystemState.all_defection(4), [4], params_r2, complete4)

    @pytest.mark.parametrize("big", [4, 2**70, np.uint64(2**63)], ids=["4", "2**70", "uint64-2**63"])
    def test_out_of_range_active_id_names_the_set(self, params_r2, complete4, big):
        # ids too large for int64 get the same message, not numpy's OverflowError
        with pytest.raises(IndexError, match=rf"active set \[0, {int(big)}\] out of range for n=4"):
            step(SystemState.all_defection(4), [big, 0], params_r2, complete4)

    @pytest.mark.parametrize("bad", [1.7, True, "2", float("nan"), np.float64(1.0), None])
    def test_non_integer_active_id_is_named(self, params_r2, complete4, bad):
        with pytest.raises(ValueError, match=f"active ids must be integers, got {re.escape(repr(bad))}$"):
            step(SystemState.all_cooperation(4), [0, bad], params_r2, complete4)

    def test_numpy_integer_ids_are_integers(self, params_r2, complete4):
        state = SystemState.all_cooperation(4)
        expected = step(state, [1, 2], params_r2, complete4)
        assert step(state, np.array([1, 2]), params_r2, complete4) == expected
        assert step(state, (np.int8(2), np.uint64(1)), params_r2, complete4) == expected

    def test_simultaneous_reads_within_step(self, complete4):
        # both updates must read pre-step opinions: with sequential reads
        # player 2's social term would already include player 1's new opinion
        p = ModelParams.uniform(4, 2.0, 1 / 3, 1 / 3, 1 / 3)
        y = np.array([1.0, 0.0, 0.5, 0.5])
        state = SystemState(np.zeros(4, dtype=np.int64), y)
        out = step(state, [0, 1], p, complete4)
        s0 = (0.0 + 0.5 + 0.5) / 3
        s1 = (1.0 + 0.5 + 0.5) / 3
        assert out.y[0] == pytest.approx(0.5 * s0, abs=1e-12)
        assert out.y[1] == pytest.approx(0.5 * s1, abs=1e-12)


class TestRun:
    def test_stationary_start_stops_after_one_window(self, params_r2, complete4):
        sched = make_schedule("round-robin", 4)
        traj = run(SystemState.all_defection(4), sched, params_r2, complete4)
        assert traj.stop_reason == "fixed_point"
        assert len(traj) == sched.T + 1
        assert traj.final == SystemState.all_defection(4)

    def test_defection_regime_decay(self, params_r2, complete4):
        traj = run(
            SystemState.all_cooperation(4),
            make_schedule("round-robin", 4),
            params_r2,
            complete4,
        )
        assert traj.stop_reason == "fixed_point"
        for state in traj.states[4:]:
            np.testing.assert_array_equal(state.x, 0)
        assert np.abs(traj.final.y).max() <= 1e-8

    def test_cooperation_regime_fixed_immediately(self, params_r38, complete4):
        traj = run(
            SystemState.all_cooperation(4),
            make_schedule("round-robin", 4),
            params_r38,
            complete4,
        )
        assert traj.stop_reason == "fixed_point"
        assert all(s == SystemState.all_cooperation(4) for s in traj.states)

    def test_max_steps_budget(self, params_r2, complete4):
        traj = run(
            SystemState.all_cooperation(4),
            make_schedule("round-robin", 4),
            params_r2,
            complete4,
            max_steps=3,
        )
        assert traj.stop_reason == "max_steps"
        assert len(traj) == 4

    def test_potentials_recorded_in_zero_prejudice_regime(self, params_r2, complete4):
        traj = run(
            SystemState.all_cooperation(4),
            make_schedule("synchronous", 4),
            params_r2,
            complete4,
            max_steps=10,
        )
        assert traj.potentials is not None
        assert len(traj.potentials) == len(traj.states)
        assert traj.potentials[0] == pytest.approx(-2.0, abs=1e-12)

    def test_potentials_absent_with_prejudice_attachment(self, complete4):
        p = ModelParams.uniform(4, 2.0, 1 / 3, 1 / 3, 1 / 3, gamma=0.5)
        traj = run(
            SystemState.all_cooperation(4),
            make_schedule("synchronous", 4),
            p,
            complete4,
            max_steps=10,
        )
        assert traj.potentials is None

    def test_active_sets_recorded(self, params_r2, complete4):
        traj = run(
            SystemState.all_cooperation(4),
            make_schedule("round-robin", 4),
            params_r2,
            complete4,
            max_steps=5,
        )
        assert traj.active_sets == ((0,), (1,), (2,), (3,), (0,))

    def test_divergence_guard_reports_last_valid_state(self, params_r2, complete4, monkeypatch):
        # the guard is unreachable through valid inputs; force the raw update
        # out of range to check the stop path
        calls = {"n": 0}
        real_revise = dynamics_module._revise

        def poisoned(y, rows, terms):
            calls["n"] += 1
            x_new, y_new = real_revise(y, rows, terms)
            if calls["n"] == 3:
                y_new = y_new + 5.0
            return x_new, y_new

        monkeypatch.setattr(dynamics_module, "_revise", poisoned)
        traj = run(
            SystemState.all_cooperation(4),
            make_schedule("round-robin", 4),
            params_r2,
            complete4,
            max_steps=10,
        )
        assert traj.stop_reason == "divergence_guard"
        assert len(traj) == 3
        assert float(traj.final.y.max()) <= 1.0
        # the third round-robin revision is player 3's, poisoned by +5
        monkeypatch.undo()
        _, y_raw = dynamics_module._revise(
            traj.final.y, complete4.W[[2]], dynamics_module._revision_terms(params_r2, [2])
        )
        assert traj.stop_detail == f"player 3: raw opinion {float(y_raw[0]) + 5.0!r}"

    @pytest.mark.parametrize("kind, poisoned_call", [("round-robin", 3), ("synchronous", 2)])
    def test_divergence_guard_names_the_player_on_both_set_shapes(
        self, params_r2, complete4, monkeypatch, kind, poisoned_call
    ):
        # one player is revised in float arithmetic and everyone in array
        # arithmetic; either way the guard stops at the last valid state and
        # names the first player out of range, with the repr of its raw opinion
        calls = {"n": 0}
        real_revise = dynamics_module._revise
        push = np.array([0.0, 0.0, 5.0, np.nan])

        def poisoned(y, rows, terms):
            calls["n"] += 1
            s, y_raw = real_revise(y, rows, terms)
            if calls["n"] == poisoned_call:
                y_raw = y_raw + (push[2] if np.ndim(y_raw) == 0 else push)
            return s, y_raw

        monkeypatch.setattr(dynamics_module, "_revise", poisoned)
        traj = run(
            SystemState.all_cooperation(4),
            make_schedule(kind, 4),
            params_r2,
            complete4,
            max_steps=10,
        )
        assert traj.stop_reason == "divergence_guard"
        assert len(traj) == poisoned_call
        monkeypatch.undo()
        # the poisoned revision is player 3's in both schedules
        _, y_raw = dynamics_module._revise(
            traj.final.y, complete4.W, dynamics_module._revision_terms(params_r2)
        )
        assert traj.stop_detail == f"player 3: raw opinion {float(y_raw[2]) + 5.0!r}"

    @pytest.mark.parametrize("kind", ["round-robin", "iid-random"])
    def test_zero_opinion_and_consistency_weight_names_the_player(self, kind, complete4):
        # player 3 weighs only the game: beta + lam = 0 leaves its opinion undefined
        params = ModelParams(
            n=4,
            r=2.0,
            alpha=np.array([0.4, 0.4, 1.0, 0.4]),
            beta=np.array([0.3, 0.3, 0.0, 0.3]),
            lam=np.array([0.3, 0.3, 0.0, 0.3]),
            gamma=np.zeros(4),
            prejudice=np.full(4, 0.5),
        )
        with pytest.raises(ValueError, match=r"^player 3: beta \+ lam must be positive"):
            run(SystemState.all_cooperation(4), make_schedule(kind, 4, seed=1), params, complete4)

    def test_stop_detail_empty_unless_diverged(self, params_r2, complete4):
        for max_steps in (3, 1000):
            traj = run(
                SystemState.all_cooperation(4),
                make_schedule("round-robin", 4),
                params_r2,
                complete4,
                max_steps=max_steps,
            )
            assert traj.stop_reason in ("max_steps", "fixed_point")
            assert traj.stop_detail == ""

    @pytest.mark.parametrize("max_steps", [2, 3, 20_000])
    def test_final_only_recording_holds_one_row(self, max_steps):
        # a synchronous 2-cycle: both players swap (action, opinion) every
        # step, so the run always spends its whole budget
        net = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
        params = ModelParams.uniform(2, 1.9, 0.01, 0.495)
        initial = SystemState(np.array([1, 0]), np.array([1.0, 0.0]))
        traj = run(
            initial, make_schedule("synchronous", 2), params, net,
            max_steps=max_steps, record=False,
        )
        assert traj.stop_reason == "max_steps"
        assert len(traj) == 1
        assert traj.x.shape == traj.y.shape == (1, 2)
        assert traj.active_sets == ()
        assert traj.potentials is None
        swapped = SystemState(np.array([0, 1]), np.array([0.0, 1.0]))
        assert traj.final == (initial if max_steps % 2 == 0 else swapped)

    def test_recorded_rows_survive_buffer_growth(self):
        # 3001 rows of a 2-cycle: each recorded row is its own copy, never a
        # view of the state the loop goes on to overwrite
        net = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
        params = ModelParams.uniform(2, 1.9, 0.01, 0.495)
        initial = SystemState(np.array([1, 0]), np.array([1.0, 0.0]))
        schedule = make_schedule("synchronous", 2)
        traj = run(initial, schedule, params, net, max_steps=3000)
        assert traj.stop_reason == "max_steps"
        assert traj.x.shape == traj.y.shape == (3001, 2)
        assert traj.x.dtype == np.int8 and traj.y.dtype == np.float64
        assert len(traj.active_sets) == 3000
        even = np.arange(3001) % 2 == 0
        np.testing.assert_array_equal(traj.x[even], [[1, 0]] * 1501)
        np.testing.assert_array_equal(traj.x[~even], [[0, 1]] * 1500)
        np.testing.assert_array_equal(traj.y[even], [[1.0, 0.0]] * 1501)
        np.testing.assert_array_equal(traj.y[~even], [[0.0, 1.0]] * 1500)
        final = run(initial, schedule, params, net, max_steps=3000, record=False).final
        assert traj.final == final

    def test_opinions_stay_bounded(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            params = random_interior_params(rng, n)
            net = random_row_stochastic(rng, n)
            traj = run(
                random_state(rng, n),
                make_schedule("shuffled-rounds", n, seed=int(rng.integers(2**31))),
                params,
                net,
                max_steps=500,
            )
            for state in traj.states:
                assert (state.y >= 0.0).all() and (state.y <= 1.0).all()

    def test_schedule_size_mismatch_rejected(self, params_r2, complete4):
        with pytest.raises(ValueError, match="schedule"):
            run(
                SystemState.all_defection(4),
                make_schedule("round-robin", 5),
                params_r2,
                complete4,
            )


class TestIsFixedPoint:
    def test_all_defection_always_fixed(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            params = random_interior_params(rng, n)
            net = random_row_stochastic(rng, n)
            assert is_fixed_point(SystemState.all_defection(n), params, net)

    def test_cooperation_depends_on_regime(self, params_r2, params_r38, complete4):
        coop = SystemState.all_cooperation(4)
        assert not is_fixed_point(coop, params_r2, complete4)
        assert is_fixed_point(coop, params_r38, complete4)

    def test_agrees_with_nash_check_on_random_states(self, rng):
        # the dynamics' stationary states and the Nash states coincide except
        # exactly on discriminant ties, which random draws do not hit
        for _ in range(40):
            n = int(rng.integers(2, 7))
            params = random_interior_params(rng, n)
            net = random_row_stochastic(rng, n)
            state = random_state(rng, n)
            assert is_fixed_point(state, params, net) == verify_nash(
                state, params, net
            ).is_nash


class TestPotential:
    def test_zero_at_origin(self, params_r2, complete4):
        assert potential(np.zeros(4), params_r2, complete4) == 0.0

    def test_consensus_value(self, params_r2, complete4):
        assert potential(np.ones(4), params_r2, complete4) == pytest.approx(
            -2.0, abs=1e-12
        )

    def test_quadratic_two_node_case(self):
        net = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
        p = ModelParams.uniform(2, 1.5, 1 / 3, 1 / 3, 1 / 3)
        assert potential_quadratic(np.array([1.0, 0.0]), p, net) == pytest.approx(
            -1.0, abs=1e-12
        )

    def test_forms_agree_on_symmetric_instances(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            params = random_interior_params(rng, n)
            net = random_symmetric_network(n, 0.6, seed=int(rng.integers(2**31)))
            y = rng.random(n)
            a = potential(y, params, net)
            b = potential_quadratic(y, params, net)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    def test_matrix_positive_definite_on_valid_instances(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            params = random_interior_params(rng, n)
            net = random_symmetric_network(n, 0.6, seed=int(rng.integers(2**31)))
            assert potential_matrix_is_positive_definite(params, net)
            M = potential_matrix(params, net)
            np.testing.assert_allclose(M, M.T)

    def test_rejects_prejudice_attachment(self, complete4):
        p = ModelParams.uniform(4, 2.0, 1 / 3, 1 / 3, 1 / 3, gamma=0.1)
        with pytest.raises(ValueError, match="gamma"):
            potential(np.zeros(4), p, complete4)

    def test_rejects_zero_beta(self, complete4):
        p = ModelParams.uniform(4, 2.0, 0.5, 0.0, 0.5)
        with pytest.raises(ValueError, match="beta"):
            potential(np.zeros(4), p, complete4)

    def test_quadratic_rejects_asymmetric_network(self, rng):
        p = random_interior_params(rng, 4)
        net = Network(np.array([
            [0.0, 1.0, 0.0, 0.0],
            [0.5, 0.0, 0.5, 0.0],
            [0.0, 0.5, 0.0, 0.5],
            [0.0, 0.0, 1.0, 0.0],
        ]))
        assert not net.is_symmetric
        with pytest.raises(ValueError, match="symmetric"):
            potential_quadratic(rng.random(4), p, net)

    def test_monotone_along_asynchronous_defection_runs(self, rng):
        # once every action is defect, each single-player revision must not
        # decrease the potential (slack for float dust), including networks
        # whose lazy-walk construction has self-loops
        for _ in range(15):
            n = int(rng.integers(2, 7))
            params, net = convergence_instance(rng, n)
            y0 = rng.random(n)
            traj = run(
                SystemState(np.zeros(n, dtype=np.int64), y0),
                make_schedule("shuffled-rounds", n, seed=int(rng.integers(2**31))),
                params,
                net,
                max_steps=2000,
            )
            pots = traj.potentials
            assert pots is not None
            for t in range(len(pots) - 1):
                assert pots[t + 1] >= pots[t] - 1e-12


class TestClassifyState:
    def test_full_consensus_labels(self):
        assert classify_state(SystemState.all_defection(3)).full_class == "all-defection-consensus"
        assert classify_state(SystemState.all_cooperation(3)).full_class == "all-cooperation-consensus"

    def test_mixed_actions_with_shared_opinion(self):
        state = SystemState(np.array([1, 0, 0]), np.full(3, 0.5))
        cls = classify_state(state)
        assert cls.action_consensus == "none"
        assert cls.opinion_consensus == pytest.approx(0.5)
        assert cls.full_class == "none"

    def test_action_consensus_without_opinion_consensus(self):
        state = SystemState(np.zeros(3, dtype=np.int64), np.array([0.0, 0.5, 1.0]))
        cls = classify_state(state)
        assert cls.action_consensus == "all-defection"
        assert cls.opinion_consensus is None
        assert cls.full_class == "none"

    def test_opinion_tolerance_is_respected(self):
        state = SystemState(np.zeros(2, dtype=np.int64), np.array([0.0, 5e-7]))
        assert classify_state(state, opinion_tol=1e-6).full_class == "all-defection-consensus"
        assert classify_state(state, opinion_tol=1e-8).full_class == "none"


class TestTrajectoryType:
    def test_mismatched_active_sets_rejected(self):
        z = np.zeros((2, 2))
        with pytest.raises(ValueError, match="active sets"):
            Trajectory(x=z, y=z, active_sets=(), potentials=None, stop_reason="max_steps")

    def test_unknown_stop_reason_rejected(self):
        z = np.zeros((1, 2))
        with pytest.raises(ValueError, match="stop reason"):
            Trajectory(x=z, y=z, active_sets=(), potentials=None, stop_reason="crashed")

    def test_states_differ_only_at_active_coordinates(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            params = random_interior_params(rng, n)
            net = random_row_stochastic(rng, n)
            traj = run(
                random_state(rng, n),
                make_schedule("round-robin", n),
                params,
                net,
                max_steps=50,
            )
            for t, active in enumerate(traj.active_sets):
                before, after = traj.states[t], traj.states[t + 1]
                frozen = np.setdiff1d(np.arange(n), np.array(active, dtype=int))
                np.testing.assert_array_equal(before.x[frozen], after.x[frozen])
                np.testing.assert_array_equal(before.y[frozen], after.y[frozen])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["synchronous", "round-robin", "shuffled-rounds"]))
def test_runs_from_random_states_stay_valid_and_stop(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    params = random_interior_params(rng, n)
    net = random_row_stochastic(rng, n)
    traj = run(
        random_state(rng, n),
        make_schedule(kind, n, seed=seed),
        params,
        net,
        max_steps=20_000,
    )
    assert traj.stop_reason in ("fixed_point", "max_steps")
    final = traj.final
    assert ((final.x == 0) | (final.x == 1)).all()
    assert (final.y >= 0.0).all() and (final.y <= 1.0).all()


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _sparse_network(rng: np.random.Generator, shape: str, n: int) -> Network:
    if shape == "ring":
        return ring_network(n)
    if shape == "grid":
        rows = max(d for d in range(1, int(n**0.5) + 1) if n % d == 0)
        return grid_network(rows, n // rows)
    # random support with self-loops, not necessarily strongly connected
    mask = rng.random((n, n)) < 0.15
    np.fill_diagonal(mask, rng.random(n) < 0.5)
    mask[np.diag_indices(n)] |= ~mask.any(axis=1)
    return Network.from_matrix(np.where(mask, rng.uniform(0.1, 1.0, (n, n)), 0.0), normalise=True)


def _exact_values(rng: np.random.Generator, v: np.ndarray) -> np.ndarray:
    """``v`` with about a third of its entries set to exactly 0.0, -0.0 or 1.0."""
    v = v.copy()
    hit = rng.random(v.size) < 0.35
    v[hit] = rng.choice([0.0, -0.0, 1.0], size=int(hit.sum()))
    return v


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(SCHEDULE_KINDS),
    st.sampled_from(("dense", "ring", "grid", "random")),
    st.sampled_from(("interior", "prejudiced", "tied", "edge")),
    st.sampled_from(("random", "exact", "cooperation")),
    st.integers(1, 300),
)
def test_recorded_run_matches_step_replay(seed, kind, shape, weights, start, max_steps):
    # oracle for the in-place loop, which revises one player in float
    # arithmetic and everyone in array arithmetic: every recorded row is one
    # validated step() of the row before, bit for bit, and every potential is
    # the public potential() of its row. The random sparse network has self-loops;
    # "tied" and "edge" put all-cooperation's discriminant at 0 and at
    # -DISCRIMINANT_TIE_TOL; "exact" sets some opinions and prejudices to
    # exactly 0.0, -0.0 or 1.0.
    rng = np.random.default_rng(seed)
    if shape == "dense":
        n = int(rng.integers(2, 8))
        net = random_row_stochastic(rng, n)
    else:
        n = int(rng.integers(3, 41))
        net = _sparse_network(rng, shape, n)
    if weights == "tied":
        params = tied_params(rng, n)
    elif weights == "edge":
        params = edge_params(rng, n)[int(rng.integers(9))]
    else:
        params = random_interior_params(rng, n)
    if weights == "prejudiced":
        prejudice = rng.random(n)
        params = ModelParams(
            n=n,
            r=params.r,
            alpha=params.alpha,
            beta=params.beta,
            lam=params.lam,
            gamma=rng.uniform(0.0, 0.9, n),
            prejudice=_exact_values(rng, prejudice) if start == "exact" else prejudice,
        )
    initial = random_state(rng, n)
    if start == "exact":
        initial = SystemState(initial.x, _exact_values(rng, initial.y))
    elif start == "cooperation":
        initial = SystemState.all_cooperation(n)
    schedule = make_schedule(kind, n, seed=seed)
    traj = run(initial, schedule, params, net, max_steps=max_steps)
    states = traj.states
    assert states[0] == initial
    assert len(traj.active_sets) == len(states) - 1
    for t, active in enumerate(traj.active_sets):
        replayed = step(states[t], active, params, net)
        np.testing.assert_array_equal(replayed.x, states[t + 1].x)
        np.testing.assert_array_equal(_bits(replayed.y), _bits(states[t + 1].y))
    if weights == "prejudiced":
        assert traj.potentials is None
    else:
        assert traj.potentials is not None
        for t, state in enumerate(states):
            assert traj.potentials[t] == potential(state.y, params, net)

    lean = run(initial, schedule, params, net, max_steps=max_steps, record=False)
    assert len(lean) == 1
    assert lean.stop_reason == traj.stop_reason
    assert lean.potentials is None
    np.testing.assert_array_equal(lean.x[0], traj.x[-1])
    np.testing.assert_array_equal(_bits(lean.y[0]), _bits(traj.y[-1]))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(SCHEDULE_KINDS),
    st.sampled_from(("ring", "grid", "random")),
    st.integers(12, 40),
    st.integers(1, 250),
)
def test_recorded_potentials_match_full_evaluation(seed, kind, shape, n, max_steps):
    # n >= 12 puts the n^2 terms past numpy's 128-element pairwise-sum block,
    # where a term refreshed out of place would show in the low bits
    rng = np.random.default_rng(seed)
    params = random_interior_params(rng, n)
    net = _sparse_network(rng, shape, n)
    schedule = make_schedule(kind, n, seed=seed)
    traj = run(random_state(rng, n), schedule, params, net, max_steps=max_steps)
    assert traj.potentials is not None
    for y, recorded in zip(traj.y, traj.potentials):
        assert recorded == potential(y, params, net)


def test_recorded_potentials_match_full_evaluation_on_a_long_ring():
    n = 192
    rng = np.random.default_rng(3)
    params = ModelParams.uniform(n, 2.0, 0.4, 0.3)
    net = ring_network(n)
    traj = run(random_state(rng, n), make_schedule("round-robin", n), params, net, max_steps=600)
    assert len(traj) == 601
    for y, recorded in zip(traj.y, traj.potentials):
        assert recorded == potential(y, params, net)
