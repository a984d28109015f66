import dataclasses
import itertools
import re
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coevo.arcsum as arcsum
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
    _run_trials,
    run,
    step,
)
from coevo.equilibria import verify_nash
from coevo.model import ModelParams, Network, RevisionTerms, SystemState, _revision_terms
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

    @pytest.mark.parametrize("kind", ["round-robin", "shuffled-rounds", "iid-random"])
    def test_one_player_sets_are_one_object_each(self, kind):
        n = 6
        sets = list(itertools.islice(make_schedule(kind, n, seed=1).sets(), 4 * n))
        assert {active[0] for active in sets} == set(range(n))
        assert len({id(active) for active in sets}) == n

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
    @pytest.mark.parametrize("kind", ["round-robin", "synchronous"])
    @pytest.mark.parametrize("record", [True, False])
    def test_a_run_is_not_checked_again_and_holds_what_the_constructor_makes(
        self, params_r2, complete4, monkeypatch, kind, record
    ):
        built = []
        post_init = Trajectory.__post_init__
        monkeypatch.setattr(Trajectory, "__post_init__", lambda traj: built.append(traj) or post_init(traj))
        start = SystemState(np.array([1, 0, 1, 1]), np.array([0.9, -0.0, 0.4, 1.0]))
        traj = run(start, make_schedule(kind, 4), params_r2, complete4, max_steps=40, record=record)
        assert built == []
        checked = Trajectory(traj.x, traj.y, traj.active_sets, traj.potentials, traj.stop_reason, traj.stop_detail)
        assert (traj.active_sets, traj.stop_reason, traj.stop_detail) == (
            checked.active_sets, checked.stop_reason, checked.stop_detail
        )
        assert (traj.potentials is None) == (checked.potentials is None) == (not record)
        for name in ("x", "y") + (("potentials",) if record else ()):
            got, want = getattr(traj, name), getattr(checked, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

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

    @pytest.mark.parametrize("max_steps", [0, -1, 2.5, 3.0, True, "3", None])
    def test_max_steps_must_be_an_integer_of_at_least_one(self, params_r2, complete4, max_steps):
        with pytest.raises(ValueError, match=re.escape(f"max_steps must be an integer >= 1, got {max_steps!r}")):
            run(SystemState.all_cooperation(4), make_schedule("round-robin", 4), params_r2, complete4,
                max_steps=max_steps)

    def test_numpy_integer_max_steps_is_accepted(self, params_r2, complete4):
        args = (SystemState.all_cooperation(4), make_schedule("round-robin", 4), params_r2, complete4)
        got, want = run(*args, max_steps=np.int64(3)), run(*args, max_steps=3)
        assert np.array_equal(got.y, want.y) and got.stop_reason == want.stop_reason == "max_steps"

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

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    def test_active_sets_share_one_object_per_set(self, kind):
        n = 6
        rng = np.random.default_rng(0)
        traj = run(
            SystemState(rng.integers(0, 2, n), rng.random(n)),
            make_schedule(kind, n, seed=1),
            ModelParams.uniform(n, 2.0, 0.3, 0.3, 0.4),
            ring_network(n),
            max_steps=200,
        )
        assert len(traj.active_sets) > 2 * n
        assert len({id(active) for active in traj.active_sets}) <= n + 1

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

    @pytest.mark.parametrize("record", [True, False])
    def test_an_undefined_best_response_is_refused_before_the_first_step(self, complete4, record):
        # one round-robin step revises only player 1, yet player 3's beta + lam = 0
        # is refused up front, recorded or not
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
            run(SystemState.all_cooperation(4), make_schedule("round-robin", 4), params, complete4,
                max_steps=1, record=record)

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
        with pytest.raises(ValueError, match="^schedule is for n=5, params for n=4$"):
            run(
                SystemState.all_defection(4),
                make_schedule("round-robin", 5),
                params_r2,
                complete4,
            )

    @pytest.mark.parametrize("n", [3, 5])
    def test_state_size_mismatch_rejected(self, params_r2, complete4, n):
        with pytest.raises(ValueError, match=f"^size mismatch: state has {n} players, params 4, network 4$"):
            run(SystemState.all_defection(n), make_schedule("round-robin", 4), params_r2, complete4)


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

    @pytest.mark.parametrize(
        "form",
        [
            lambda params, net: potential(np.zeros(4), params, net),
            lambda params, net: potential_quadratic(np.zeros(4), params, net),
            potential_matrix,
            potential_matrix_is_positive_definite,
        ],
        ids=["potential", "potential_quadratic", "potential_matrix", "positive_definite"],
    )
    @pytest.mark.parametrize(
        "gamma, beta, message",
        [
            ([0, 0, 0.1, 0], [1 / 3] * 4, "player 3: the potential is defined only for zero prejudice attachment, got gamma=0.1"),
            ([0] * 4, [1 / 3, 0, 1 / 3, 0], "player 2: the potential divides by beta, got beta=0.0"),
        ],
        ids=["gamma", "beta"],
    )
    def test_every_form_names_the_first_player_without_a_potential(self, complete4, form, gamma, beta, message):
        beta = np.array(beta)
        params = ModelParams(
            n=4, r=2.0, alpha=np.full(4, 1 / 3), beta=beta, lam=2 / 3 - beta, gamma=np.array(gamma), prejudice=np.full(4, 0.5)
        )
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            form(params, complete4)

    def test_matrix_is_singular_without_consistency_weight(self):
        # lam = 0 leaves M = I - W, which has the all-ones vector in its kernel
        params = ModelParams.uniform(2, 1.5, 0.5, 0.5, 0.0)
        assert not potential_matrix_is_positive_definite(params, ring_network(2))

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


def _full_class_of_row(x, y, opinion_tol):
    """The full-class rule one state at a time, in Python scalars: the reference
    for the labels ``_full_class`` gives a whole ``(..., n)`` array at once."""
    if all(v == 0 for v in x) and max(abs(v) for v in y) <= opinion_tol:
        return "all-defection-consensus"
    if all(v == 1 for v in x) and max(abs(v - 1.0) for v in y) <= opinion_tol:
        return "all-cooperation-consensus"
    return "none"


def _state_class_of_row(x, y, opinion_tol):
    """The whole label of one state of 1-D actions and opinions: the reference for
    the labels ``_state_classes`` gives many rows at once. The opinion mean is
    numpy's over the 1-D row, so it is summed as one state's opinions are."""
    x = x.tolist()
    action = "all-defection" if all(v == 0 for v in x) else "all-cooperation" if all(v == 1 for v in x) else "none"
    opinion = float(y.mean()) if float(y.max() - y.min()) <= opinion_tol else None
    return dynamics_module.StateClass(action, opinion, _full_class_of_row(x, y.tolist(), opinion_tol))


@st.composite
def labelled_ends(draw):
    """``(rows, n)`` actions and opinions of valid states, each row near one of the
    consensus classes: actions all 0 or all 1 with opinions on that side at 0 (or
    -0.0), 1, exactly ``opinion_tol`` away, or one float step further, now and
    then anywhere in [0, 1], or with one action flipped; and the tolerance."""
    tol = draw(st.sampled_from([1e-6, 1e-8, 0.25]))
    rows, n = draw(st.integers(1, 6)), draw(st.integers(2, 9))
    near = {0: [0.0, -0.0, tol, float(np.nextafter(tol, 1.0))],
            1: [1.0, 1.0 - tol, float(np.nextafter(1.0 - tol, 0.0))]}
    x, y = np.zeros((rows, n), dtype=np.int8), np.zeros((rows, n))
    for t in range(rows):
        side = draw(st.sampled_from([0, 1]))
        x[t] = side
        if draw(st.booleans()):
            x[t, draw(st.integers(0, n - 1))] = 1 - side
        y[t] = draw(st.lists(st.sampled_from(near[side]) | st.floats(0.0, 1.0), min_size=n, max_size=n))
    return x, y, tol


@settings(max_examples=300, deadline=None)
@given(labelled_ends())
def test_full_class_of_many_ends_matches_one_state_at_a_time(ends):
    x, y, tol = ends
    labels = dynamics_module._full_class(x, y, tol)
    assert labels.shape == (len(x),)
    for t in range(len(x)):
        want = _full_class_of_row(x[t].tolist(), y[t].tolist(), tol)
        assert labels[t] == want
        assert classify_state(SystemState(x[t], y[t]), opinion_tol=tol).full_class == want


@st.composite
def classified_rows(draw):
    """``(rows, n)`` actions and opinions of valid states and a tolerance. A row's
    actions are all 0, all 1 or all but one alike. Its opinions sit at a centre m
    (0, 1, 0.5 or anywhere), at -0.0 when m is 0, and a step from m toward the
    middle of exactly ``tol``, of one float more or of less, so a row's spread
    lies at the tolerance, just past it or inside it. Some rows are longer than
    numpy's pairwise-summation block of 128, so their means are summed in parts."""
    tol = draw(st.sampled_from([1e-6, 1e-8, 0.25]))
    rows, n = draw(st.integers(1, 6)), draw(st.integers(2, 20) | st.sampled_from([127, 128, 129, 130, 300]))
    x, y = np.zeros((rows, n), dtype=np.int64), np.zeros((rows, n))
    for t in range(rows):
        x[t] = draw(st.sampled_from([0, 1]))
        if draw(st.booleans()):
            x[t, draw(st.integers(0, n - 1))] ^= 1
        m = draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0))
        s = 1.0 if m <= 0.5 else -1.0
        steps = [tol, float(np.nextafter(tol, 1.0)), draw(st.floats(0.0, tol))]
        pool = [m, -0.0 if m == 0.0 else m, *(m + s * d for d in steps)]
        if n > 20:  # drawn one by one, a long row's opinions are slow: a seeded generator picks them
            y[t] = draw(st.randoms(use_true_random=True)).choices(pool, k=n)
        else:
            y[t] = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return x, y, tol


@settings(max_examples=400, deadline=None)
@given(classified_rows())
def test_state_classes_of_many_rows_match_one_row_at_a_time(rows):
    x, y, tol = rows
    labels = dynamics_module._state_classes(x, y, tol)
    assert len(labels) == len(x)
    for t, label in enumerate(labels):
        want = _state_class_of_row(x[t], y[t], tol)
        assert classify_state(SystemState(x[t], y[t]), opinion_tol=tol) == want
        assert label == want
        # == takes -0.0 for 0.0; the text shows every bit of the mean
        assert repr(label.opinion_consensus) == repr(want.opinion_consensus)


class TestTrajectoryType:
    def test_mismatched_active_sets_rejected(self):
        z = np.zeros((2, 2))
        with pytest.raises(ValueError, match="active sets"):
            Trajectory(x=z, y=z, active_sets=(), potentials=None, stop_reason="max_steps")

    def test_unknown_stop_reason_rejected(self):
        z = np.zeros((1, 2))
        with pytest.raises(ValueError, match="stop reason"):
            Trajectory(x=z, y=z, active_sets=(), potentials=None, stop_reason="crashed")

    @pytest.mark.parametrize(
        ("x", "y", "message"),
        [
            # an int8 cast would truncate 0.7 to 0 and wrap 300 to 44
            ([[0, 1], [0.7, 1]], [[0.5, 0.5]] * 2, "row 1: player 1: action must be 0 or 1, got 0.7"),
            ([[300, 1]], [[0.5, 0.5]], "row 0: player 1: action must be 0 or 1, got 300"),
            ([[0, 1]], [[0.5, 1.5]], "row 0: player 2: opinion must lie in [0, 1], got 1.5"),
            ([[0, 1], [0, 1]], [[0.5, 0.5], [0.5, float("nan")]], "row 1: player 2: opinion must lie in [0, 1], got nan"),
            ([0, 1], [0.5, 0.5], "actions and opinions must be (rows, n) arrays of one shape, got (2,) and (2,)"),
            ([[0, 1]], [[0.5]], "actions and opinions must be (rows, n) arrays of one shape, got (1, 2) and (1, 1)"),
        ],
    )
    def test_invalid_rows_rejected(self, x, y, message):
        active_sets = ((0,),) * (len(x) - 1)
        with pytest.raises(ValueError, match=re.escape(message)):
            Trajectory(x=x, y=y, active_sets=active_sets, potentials=None, stop_reason="max_steps")

    @pytest.mark.parametrize(
        ("active_sets", "message"),
        [
            # the renderer would write 8, 0 and 1.5, which the loader refuses
            (((0,), (7,)), "row 2: active ids must be integers in 0..2, got [7]"),
            (((-1,), (0,)), "row 1: active ids must be integers in 0..2, got [-1]"),
            (((0.5,), (0,)), "row 1: active ids must be integers in 0..2, got [0.5]"),
            # equal to an earlier valid set, but not integers
            (((1,), (1.0,)), "row 2: active ids must be integers in 0..2, got [1.0]"),
            (((1,), (True,)), "row 2: active ids must be integers in 0..2, got [True]"),
            (((0, 1, 2), (0, "a", 2)), "row 2: active ids must be integers in 0..2, got [0, 'a', 2]"),
        ],
    )
    def test_invalid_active_ids_rejected(self, active_sets, message):
        z = np.zeros((3, 3))
        with pytest.raises(ValueError, match=re.escape(message)):
            Trajectory(x=z, y=z, active_sets=active_sets, potentials=None, stop_reason="max_steps")

    def test_potentials_must_align_with_rows(self):
        z = np.zeros((2, 2))
        with pytest.raises(ValueError, match="potentials must align with states"):
            Trajectory(x=z, y=z, active_sets=((0,),), potentials=[0.0], stop_reason="max_steps")

    def test_empty_trajectory_has_no_final_state(self):
        z = np.zeros((0, 2))
        traj = Trajectory(x=z, y=z, active_sets=(), potentials=None, stop_reason="unknown")
        with pytest.raises(ValueError, match="empty trajectory has no final state"):
            traj.final

    def test_a_shared_active_set_is_checked_once(self):
        # a synchronous run repeats one everyone-set object on every row
        class Ids(tuple):
            def __iter__(self):
                reads.append(1)
                return super().__iter__()

        reads, everyone = [], Ids(range(4))
        z = np.zeros((101, 4))
        Trajectory(x=z, y=z, active_sets=(everyone,) * 100, potentials=None, stop_reason="max_steps")
        assert len(reads) == 1

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


def _block_rows(rows):
    """Run's loop with ``rows`` rows per block, or its default for None."""
    return nullcontext() if rows is None else mock.patch.object(dynamics_module, "_block_rows", lambda n: rows)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(SCHEDULE_KINDS),
    st.sampled_from(("dense", "ring", "grid", "random")),
    st.sampled_from(("interior", "prejudiced", "tied", "edge")),
    st.sampled_from(("random", "exact", "cooperation")),
    st.integers(1, 300),
    st.sampled_from((None, 1, 2, 7)),
)
def test_recorded_run_matches_step_replay(seed, kind, shape, weights, start, max_steps, block_rows):
    # oracle for the in-place loop, which revises one player in float
    # arithmetic and everyone in array arithmetic: every recorded row is one
    # validated step() of the row before, bit for bit, and every potential is
    # the public potential() of its row. The random sparse network has self-loops;
    # "tied" and "edge" put all-cooperation's discriminant at 0 and at
    # -DISCRIMINANT_TIE_TOL; "exact" sets some opinions and prejudices to
    # exactly 0.0, -0.0 or 1.0. A block_rows of 1, 2 or 7 spreads the rows,
    # and the potentials' term buffer, over many blocks of the run's loop.
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
    with _block_rows(block_rows):
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
    st.sampled_from(("ring", "grid", "random", "complete")),
    st.integers(12, 80),
    st.integers(1, 250),
    st.sampled_from((None, 1, 2, 7)),
)
def test_recorded_potentials_match_full_evaluation(seed, kind, shape, n, max_steps, block_rows):
    # n >= 12 puts the n^2 terms past numpy's 128-element pairwise-sum block,
    # where a term refreshed or summed out of place would show in the low bits;
    # rings and grids sum over their arcs, complete networks through the n-by-n
    # term buffer, and random ones (15% of cells) over their arcs up to n=66
    rng = np.random.default_rng(seed)
    params = random_interior_params(rng, n)
    net = complete_network(n) if shape == "complete" else _sparse_network(rng, shape, n)
    schedule = make_schedule(kind, n, seed=seed)
    with _block_rows(block_rows):
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


@pytest.mark.parametrize(
    ("net", "module", "evaluator"),
    [
        (ring_network(64), arcsum, "potentials"),
        (grid_network(8, 8), arcsum, "potentials"),
        (ring_network(12), arcsum, "potentials"),
        (complete_network(12), arcsum, "_buffer_potentials"),
        (complete_network(20), arcsum, "_buffer_potentials"),
    ],
)
def test_recorded_potentials_take_the_side_of_the_density_rule(net, module, evaluator):
    # at most 10 arcs per node sum over the arcs, anything denser through the
    # term buffer; both equal the plain formula bit for bit
    n = net.n
    rng = np.random.default_rng(n)
    params = ModelParams.uniform(n, 2.0, 0.4, 0.3)
    spy = mock.patch.object(module, evaluator, wraps=getattr(module, evaluator))
    with _block_rows(7), spy as called:
        traj = run(random_state(rng, n), make_schedule("shuffled-rounds", n, seed=n), params, net, max_steps=90)
    assert called.call_count == -(-len(traj) // 7)
    for y, recorded in zip(traj.y, traj.potentials):
        assert recorded == potential(y, params, net)


def test_a_plan_that_sums_in_another_order_than_numpy_is_not_used():
    # stands in for a numpy whose sum takes another order: the plan adds the
    # ring's terms shuffled, so the probe rows' bits differ from numpy's and
    # the run keeps the term buffer, whose potentials stay exact
    n = 64
    net = ring_network(n)
    assert arcsum.sparse_plan(net.W) is not None

    build = arcsum.build

    def shuffled_build(W):
        plan = build(W)
        order = np.random.default_rng(1).permutation(plan.src.size)
        return dataclasses.replace(plan, src=plan.src[order], dst=plan.dst[order], half_w=plan.half_w[order])

    rng = np.random.default_rng(5)
    params = ModelParams.uniform(n, 2.0, 0.4, 0.3)
    with (
        mock.patch.object(arcsum, "build", shuffled_build),
        mock.patch.object(arcsum, "potentials") as arc_sum,
        mock.patch.object(arcsum, "_buffer_potentials", wraps=arcsum._buffer_potentials) as buffer,
    ):
        assert arcsum.sparse_plan(net.W) is None
        traj = run(random_state(rng, n), make_schedule("round-robin", n), params, net, max_steps=90)
    assert not arc_sum.called and buffer.called
    for y, recorded in zip(traj.y, traj.potentials):
        assert recorded == potential(y, params, net)


def _plain_potentials(Y: np.ndarray, W: np.ndarray, params: ModelParams) -> np.ndarray:
    anchor_w = params.lam / params.beta
    return np.array(
        [-0.5 * (float((W / 2 * (y[:, None] - y[None, :]) ** 2).sum()) + float((anchor_w * y**2).sum())) for y in Y]
    )


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 200),
    st.sampled_from(("one-arc", "sparse", "half", "complete")),
    st.integers(1, 9),
    st.sampled_from((None, 1, 2, 3)),
)
def test_arc_sum_and_term_buffer_match_the_plain_formula(seed, n, support, rows, chunk_rows):
    # both sides of the recorder, forced whatever the density rule would pick
    # (at most -1 arcs per node: the buffer, even without arcs; at most n: the
    # arc sum), against the formula of potential(): n=2 puts the n^2 terms under numpy's
    # 8-term running sum, n <= 11 inside one 128-term leaf, and n >= 91 past
    # 8192; zero weights include -0.0 and self-loops, opinions exact 0.0, -0.0
    # and 1.0, and a chunk of 1 to 3 rows splits the rows into many chunks
    rng = np.random.default_rng(seed)
    if support == "one-arc":
        W = np.zeros((n, n))
        W[tuple(rng.integers(n, size=2))] = rng.uniform(0.1, 1.0)
    else:
        density = {"sparse": 1 / 16, "half": 0.5, "complete": 1.0}[support]
        W = np.where(rng.random((n, n)) < density, rng.uniform(0.01, 1.0, (n, n)), 0.0)
    W[(W == 0.0) & (rng.random((n, n)) < 0.3)] = -0.0
    params = random_interior_params(rng, n)
    # each row revises one player or everyone, as the run's rows do
    keys = [()]
    Y = [_exact_values(rng, rng.random(n))]
    for _ in range(rows - 1):
        y = Y[-1].copy()
        key = (int(rng.integers(n)),) if rng.random() < 0.7 else tuple(range(n))
        y[list(key)] = _exact_values(rng, rng.random(len(key)))
        keys.append(key)
        Y.append(y)
    Y = np.array(Y)
    expected = _bits(_plain_potentials(Y, W, params))

    plan = arcsum.build(W)
    assert plan.src.size == np.count_nonzero(W)
    cells = arcsum.CHUNK_CELLS if chunk_rows is None else chunk_rows * plan.size
    for arcs_per_node, side in ((-1, "_buffer_potentials"), (n, "potentials")):
        with (
            mock.patch.object(arcsum, "ARCS_PER_NODE", arcs_per_node),
            mock.patch.object(arcsum, "CHUNK_CELLS", cells),
            mock.patch.object(arcsum, side, wraps=getattr(arcsum, side)) as taken,
        ):
            np.testing.assert_array_equal(_bits(arcsum.recorder(params, W)(Y, keys)), expected)
        assert taken.call_count == 1


def _serial_end(initial, schedule, params, net, max_steps):
    """The end of the recorded, one-run-at-a-time loop: final actions and opinion
    bits, steps, stop reason and detail."""
    traj = run(initial, schedule, params, net, max_steps=max_steps)
    return traj.x[-1].tolist(), _bits(traj.y[-1]).tolist(), len(traj) - 1, traj.stop_reason, traj.stop_detail


def _stacked_terms(param_list):
    """The revision terms of one run per entry of ``param_list``, stacked as (trials, n)."""
    per_trial = [_revision_terms(params) for params in param_list]
    fields = [np.stack(f) for f in zip(*(t[:5] for t in per_trial))]
    blends = [t.blend for t in per_trial]
    blend = None if blends[0] is None else tuple(np.stack(b) for b in zip(*blends))
    return RevisionTerms(*fields, blend)


def _poison_opinions(rate):
    """``_opinion`` pushed 5.0 past the valid region wherever it exceeds 0.05 and
    the fraction of its value times 2**20 falls below ``rate``: elementwise on
    the same bits, so the serial and lockstep loops diverge at the same step of
    the same trials, and a low rate spares some trials."""
    real = dynamics_module._opinion

    def poisoned(*args):
        o = real(*args)
        return o + 5.0 * ((o > 0.05) & (o * 2.0**20 % 1.0 < rate))

    return mock.patch.object(dynamics_module, "_opinion", poisoned)


def _batch_end(starts, schedules, param_list, net, max_steps):
    """The end of one unrecorded lockstep run of ``starts``: final actions and
    opinions, and each trial's steps, stop reason and detail."""
    end: list = []
    assert list(_run_trials(np.stack([s.x for s in starts]), np.stack([s.y for s in starts]), schedules,
                            _stacked_terms(param_list), net.W, max_steps, 1e-10, end)) == []
    return end


def _check_batch_against_serial(rng, kind, net, param_list, starts, max_steps):
    """Each trial's stop reason, once the batch ended every trial as a run of its
    own does, and whether the batch's last live trial took the lone kernel."""
    n = net.n
    schedules = [make_schedule(kind, n, seed=int(rng.integers(2**32))) for _ in starts]
    with mock.patch.object(dynamics_module, "_revise", wraps=dynamics_module._revise) as lone:
        X, Y, steps, reasons, details = _batch_end(starts, schedules, param_list, net, max_steps)
    ends = []
    for t, (initial, schedule, params) in enumerate(zip(starts, schedules, param_list)):
        want = _serial_end(initial, schedule, params, net, max_steps)
        assert (X[t].tolist(), _bits(Y[t]).tolist(), int(steps[t]), reasons[t], details[t]) == want
        # a lone unrecorded run through the public door, which carries any prejudice blend
        lean = run(initial, schedule, params, net, max_steps=max_steps, record=False)
        assert (lean.x[0].tolist(), _bits(lean.y[0]).tolist(), lean.stop_reason, lean.stop_detail) == (
            want[0], want[1], want[3], want[4])
        ends.append(want[3])
    return ends, lone.called


@pytest.mark.blas_bits
def test_lockstep_batch_matches_serial_runs():
    # oracle for the lockstep core: every trial of one batch ends where the
    # recorded serial loop ends it, with the same actions, opinion bits, steps,
    # stop reason and detail. Trials differ in start, schedule seed and
    # weights, as a sweep's cells do; "tied" and "edge" put all-cooperation's
    # discriminant on the tie band, and a poisoned opinion formula forces the
    # divergence guard in the trials whose opinions pass the threshold. An
    # all-defection start is a fixed point of the weights without prejudice
    # (r < n), so it stops after one window while other trials run on, some to
    # the budget: the batch shrinks to one live trial, which takes the lone
    # kernel for the rest of the run.
    switched = []

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(SCHEDULE_KINDS),
        st.sampled_from(("dense", "ring", "random")),
        st.sampled_from(("interior", "prejudiced", "tied", "edge")),
        # two trials or more, so every example takes the stacked kernel; each
        # trial's lone unrecorded run is checked in `_check_batch_against_serial`
        st.integers(2, 6),
        st.integers(1, 120),
        st.sampled_from((None, 0.01, 0.05)),
    )
    def check(seed, kind, shape, weights, trials, max_steps, poison):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8)) if shape == "dense" else int(rng.integers(3, 20))
        net = random_row_stochastic(rng, n) if shape == "dense" else _sparse_network(rng, shape, n)
        pool = []
        for _ in range(2):
            if weights == "tied":
                params = tied_params(rng, n)
            elif weights == "edge":
                params = edge_params(rng, n)[int(rng.integers(9))]
            else:
                params = random_interior_params(rng, n)
            if weights == "prejudiced":
                params = dataclasses.replace(params, gamma=rng.uniform(0.05, 0.9, n), prejudice=rng.random(n))
            pool.append(params)
        param_list = [pool[int(rng.integers(2))] for _ in range(trials)]
        makers = (SystemState.all_cooperation, SystemState.all_defection, lambda n: random_state(rng, n))
        starts = [makers[rng.choice(3, p=[0.2, 0.5, 0.3])](n) for _ in range(trials)]
        with nullcontext() if poison is None else _poison_opinions(poison):
            _, lone = _check_batch_against_serial(rng, kind, net, param_list, starts, max_steps)
        switched.append(lone)

    check()
    # the stacked kernel handed over to the lone one in a tenth of the batches or
    # more (a quarter to a third of them in runs of this strategy)
    assert sum(switched) >= len(switched) / 10, (sum(switched), len(switched))


@pytest.mark.blas_bits
@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_lockstep_divergence_stops_some_trials_and_not_others(kind):
    rng = np.random.default_rng(5)
    n = 6
    net = random_row_stochastic(rng, n)
    param_list = [random_interior_params(rng, n) for _ in range(12)]
    starts = [random_state(rng, n) for _ in range(12)]
    with _poison_opinions(0.02):
        ends, _ = _check_batch_against_serial(rng, kind, net, param_list, starts, 60)
    assert "divergence_guard" in ends
    assert {"fixed_point", "max_steps"} & set(ends)


@pytest.mark.blas_bits
@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_a_stacked_matvec_off_by_one_bit_falls_back_to_per_trial_matvecs(kind, monkeypatch):
    # the probe compares the stacked matmul with one matvec per trial; one
    # bit off, the batch takes every social term one trial at a time and
    # still ends each trial as the serial loop does
    calls = {"stacked": 0, "each": 0}
    stacked, each = dynamics_module._social_stacked, dynamics_module._social_each

    def off_by_one_bit(*args):
        calls["stacked"] += 1
        return np.nextafter(stacked(*args), np.inf)

    def counted(*args):
        calls["each"] += 1
        return each(*args)

    monkeypatch.setattr(dynamics_module, "_social_stacked", off_by_one_bit)
    monkeypatch.setattr(dynamics_module, "_social_each", counted)
    rng = np.random.default_rng(11)
    n = 5
    net = random_row_stochastic(rng, n)
    param_list = [random_interior_params(rng, n) for _ in range(4)]
    starts = [random_state(rng, n) for _ in range(4)]
    X, Y, steps, reasons, details = _batch_end(
        starts, [make_schedule(kind, n, seed=t) for t in range(4)], param_list, net, 40)
    # the probe is the one stacked call, and every step of two or more live
    # trials took the per-trial path, until the second-last trial stopped
    assert calls["stacked"] == 1
    assert calls["each"] == 1 + int(np.sort(steps)[-2])
    for t in range(4):
        want = _serial_end(starts[t], make_schedule(kind, n, seed=t), param_list[t], net, 40)
        assert (X[t].tolist(), _bits(Y[t]).tolist(), int(steps[t]), reasons[t], details[t]) == want


@pytest.mark.blas_bits
@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
def test_a_lone_unrecorded_run_takes_the_float_step_and_runs_no_probe(kind):
    # a run of one trial never takes the stacked kernel, so it runs no probe
    # of the stacked matvec: each of its steps is one _revise, as recorded
    rng = np.random.default_rng(7)
    n = 6
    net, params, initial = random_row_stochastic(rng, n), random_interior_params(rng, n), random_state(rng, n)
    schedule = make_schedule(kind, n, seed=3)
    recorded = run(initial, schedule, params, net, max_steps=60)
    with (
        mock.patch.object(dynamics_module, "_social_stacked") as stacked,
        mock.patch.object(dynamics_module, "_social_each") as each,
        mock.patch.object(dynamics_module, "_revise", wraps=dynamics_module._revise) as lone,
    ):
        lean = run(initial, schedule, params, net, max_steps=60, record=False)
    assert not stacked.called and not each.called
    assert lone.call_count == len(recorded) - 1
    np.testing.assert_array_equal(_bits(lean.y[0]), _bits(recorded.y[-1]))
