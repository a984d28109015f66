import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coevo.dynamics import (
    is_fixed_point,
    make_schedule,
    potential,
    potential_matrix,
    potential_matrix_is_positive_definite,
    potential_quadratic,
    run,
    step,
)
import coevo.equilibria as equilibria_module
import coevo.model as model_module
from coevo.equilibria import (
    CONDITION_ALL_COOPERATION_EXISTS,
    CONDITION_ALL_DEFECTION_UNIQUE,
    ENUMERATION_MAX_N,
    NashCheck,
    check_all_cooperation_exists,
    check_all_defection_unique,
    enumerate_equilibria,
    solve_opinion_equilibrium,
    sweep,
    verify_nash,
)
from coevo.io import render_json, sweep_table_to_jsonable
from coevo.model import (
    DISCRIMINANT_TIE_TOL,
    ModelParams,
    Network,
    SystemState,
    best_response,
    discriminant,
    opinion_payoff,
    total_payoff,
)
from coevo.networks import complete_network, random_symmetric_network, ring_network
from exact import decimal_boundary_cells
from instances import (
    cooperation_regime_params,
    defection_regime_params,
    edge_params,
    iterated_opinions,
    random_interior_params,
    random_row_stochastic,
    tied_params,
)
from scan import scan_equilibria


class TestConditions:
    def test_defection_unique_holds_at_r2(self, params_r2, complete4):
        report = check_all_defection_unique(params_r2)
        assert report.condition_id == CONDITION_ALL_DEFECTION_UNIQUE
        lhs, rhs, holds = report.per_player[0]
        assert lhs == pytest.approx(1 / 6, abs=1e-12)
        assert rhs == pytest.approx(1 / 3, abs=1e-12)
        assert holds
        assert report.all_hold

    def test_defection_unique_fails_at_r38(self, params_r38, complete4):
        report = check_all_defection_unique(params_r38)
        lhs, rhs, holds = report.per_player[0]
        assert lhs == pytest.approx(1 / 6, abs=1e-12)
        assert rhs == pytest.approx(1 / 30, abs=1e-12)
        assert not holds
        assert not report.all_hold

    def test_cooperation_exists_mirrors_strictly(self, params_r2, params_r38, complete4):
        assert not check_all_cooperation_exists(params_r2).all_hold
        assert check_all_cooperation_exists(params_r38).all_hold

    def test_vanishing_opinion_weight_limit(self, complete4):
        p = ModelParams.uniform(4, 2.0, (1 - 1e-9) / 2, 1e-9, (1 - 1e-9) / 2)
        report = check_all_defection_unique(p)
        assert report.all_hold
        lhs, rhs, _ = report.per_player[0]
        assert lhs == pytest.approx(1e-9, rel=1e-6)

    def test_boundary_case_splits_the_conditions(self, complete4):
        # pick r so that lhs == rhs exactly: lhs = 1/6, so r/n = 1 - 1/(4 alpha)
        n, alpha = 4, 1 / 3
        r = n * (1.0 - (1 / 6) / (2 * alpha))
        p = ModelParams.uniform(n, r, alpha, 1 / 3, 1 / 3)
        defect = check_all_defection_unique(p)
        coop = check_all_cooperation_exists(p)
        assert defect.all_hold
        assert not coop.all_hold

    def test_exact_decimal_boundaries_go_to_defection(self):
        # in binary the two sides round apart on most of these cells, on either
        # side; the consensus discriminant stays inside the tie band on all of them
        cells = decimal_boundary_cells()
        assert len(cells) == 45
        wrong = []
        for n, r, alpha, beta in cells:
            p = ModelParams.uniform(n, r, alpha, beta)
            if not check_all_defection_unique(p).all_hold or check_all_cooperation_exists(p).all_hold:
                wrong.append((n, r, alpha, beta))
        assert wrong == []

    def test_rejects_non_interior_params(self, complete4):
        zero_beta = ModelParams.uniform(4, 2.0, 0.5, 0.0, 0.5)
        with pytest.raises(ValueError, match="interior"):
            check_all_defection_unique(zero_beta)
        with pytest.raises(ValueError, match="interior"):
            check_all_cooperation_exists(zero_beta)
        attached = ModelParams.uniform(4, 2.0, 1 / 3, 1 / 3, 1 / 3, gamma=0.2)
        with pytest.raises(ValueError, match="interior"):
            check_all_defection_unique(attached)

    @pytest.mark.parametrize(
        "alpha, beta, gamma, player, got",
        [
            # alpha is scanned first, though beta and lam are also 0 here
            ([1.0] * 4, [0.0] * 4, [0] * 4, 1, "alpha=1.0"),
            ([0.4] * 4, [0.3, 0.3, 0.0, 0.0], [0] * 4, 3, "beta=0.0"),
            ([0.4] * 4, [0.3, 0.6, 0.3, 0.6], [0] * 4, 2, "lam=0.0"),
            ([0.4] * 4, [0.3] * 4, [0, 0, 0.2, 0.2], 3, "gamma=0.2"),
        ],
        ids=["alpha", "beta", "lam", "gamma"],
    )
    def test_refusal_names_the_first_player_outside_the_interior(self, alpha, beta, gamma, player, got):
        alpha, beta = np.array(alpha), np.array(beta)
        params = ModelParams(
            n=4, r=2.0, alpha=alpha, beta=beta, lam=1.0 - alpha - beta, gamma=np.array(gamma), prejudice=np.full(4, 0.5)
        )
        message = (
            f"player {player}: the consensus conditions are stated for the strict interior "
            f"(alpha, beta, lam inside (0, 1), gamma = 0), got {got}"
        )
        for check in (check_all_defection_unique, check_all_cooperation_exists):
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                check(params)

    def test_per_player_heterogeneity(self, complete4):
        alpha = np.array([0.2, 1 / 3, 1 / 3, 1 / 3])
        beta = np.array([0.4, 1 / 3, 1 / 3, 1 / 3])
        lam = 1.0 - alpha - beta
        p = ModelParams(4, 2.0, alpha=alpha, beta=beta, lam=lam, gamma=np.zeros(4), prejudice=np.full(4, 0.5))
        report = check_all_defection_unique(p)
        assert len(report.per_player) == 4
        lhs0 = 0.4 * lam[0] / (0.4 + lam[0])
        assert report.per_player[0][0] == pytest.approx(lhs0, abs=1e-12)
        assert report.per_player[1][0] == pytest.approx(1 / 6, abs=1e-12)


class TestSolveOpinionEquilibrium:
    def test_consensus_endpoints(self, params_r2, complete4):
        y0 = solve_opinion_equilibrium(np.zeros(4, dtype=np.int64), params_r2, complete4)
        y1 = solve_opinion_equilibrium(np.ones(4, dtype=np.int64), params_r2, complete4)
        np.testing.assert_allclose(y0, 0.0, atol=1e-12)
        np.testing.assert_allclose(y1, 1.0, atol=1e-12)

    def test_two_player_split_profile(self):
        net = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
        p = ModelParams.uniform(2, 1.5, 1 / 3, 1 / 3, 1 / 3)
        y = solve_opinion_equilibrium(np.array([1, 0]), p, net)
        np.testing.assert_allclose(y, [2 / 3, 1 / 3], atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.booleans(), st.data())
    def test_direct_solve_agrees_with_the_iteration(self, n, seed, self_loops, data):
        rng = np.random.default_rng(seed)
        params = random_interior_params(rng, n)
        net = random_row_stochastic(rng, n, self_loops)
        x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        np.testing.assert_allclose(
            solve_opinion_equilibrium(x, params, net), iterated_opinions(x, params, net), atol=1e-10
        )

    def test_solution_satisfies_update_equations(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 9))
            params = random_interior_params(rng, n)
            net = random_row_stochastic(rng, n)
            x = rng.integers(0, 2, size=n)
            y = solve_opinion_equilibrium(x, params, net)
            phi = params.beta / (params.beta + params.lam)
            psi = params.lam / (params.beta + params.lam)
            np.testing.assert_allclose(y, phi * (net.W @ y) + psi * x, atol=1e-10)

    def test_rejects_prejudice_attachment(self, complete4):
        p = ModelParams.uniform(4, 2.0, 1 / 3, 1 / 3, 1 / 3, gamma=0.3)
        with pytest.raises(ValueError, match="gamma"):
            solve_opinion_equilibrium(np.zeros(4, dtype=np.int64), p, complete4)

    def test_rejects_zero_consistency_weight(self, complete4):
        p = ModelParams.uniform(4, 2.0, 0.5, 0.5, 0.0)
        with pytest.raises(ValueError, match="lam must be positive"):
            solve_opinion_equilibrium(np.zeros(4, dtype=np.int64), p, complete4)

    def test_non_binary_profile_rejected(self, params_r2, complete4):
        with pytest.raises(ValueError):
            solve_opinion_equilibrium(np.array([0, 2, 0, 0]), params_r2, complete4)


class TestVerifyNash:
    def test_cooperation_consensus_refuted_at_r2(self, params_r2, complete4):
        check = verify_nash(SystemState.all_cooperation(4), params_r2, complete4)
        assert not check.is_nash
        assert check.deviating_player == 0
        x_dev, y_dev = check.improving_response
        assert x_dev == 0
        assert y_dev == pytest.approx(0.5, abs=1e-12)

    def test_defection_consensus_always_nash(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            params = random_interior_params(rng, n)
            net = random_row_stochastic(rng, n)
            check = verify_nash(SystemState.all_defection(n), params, net)
            assert check.is_nash
            assert check.deviating_player is None
            assert check.improving_response is None

    def test_cooperation_consensus_nash_at_r38(self, params_r38, complete4):
        assert verify_nash(SystemState.all_cooperation(4), params_r38, complete4).is_nash

    def test_witness_strictly_improves(self, rng):
        from coevo.model import total_payoff

        found = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            params = random_interior_params(rng, n)
            net = random_row_stochastic(rng, n)
            state = SystemState(
                rng.integers(0, 2, size=n), rng.random(n)
            )
            check = verify_nash(state, params, net, tol=1e-9)
            if check.is_nash:
                continue
            found += 1
            i = check.deviating_player
            x_dev, y_dev = check.improving_response
            x_new = state.x.copy()
            x_new[i] = x_dev
            y_new = state.y.copy()
            y_new[i] = y_dev
            before = total_payoff(i, state, params, net)
            after = total_payoff(i, SystemState(x_new, y_new), params, net)
            assert after > before + 1e-9
        assert found >= 30


class TestEnumerateEquilibria:
    def test_defection_regime_unique(self, params_r2, complete4):
        report = enumerate_equilibria(params_r2, complete4)
        assert report.action_profiles_scanned == 16
        assert len(report.equilibria) == 1
        eq = report.equilibria[0]
        np.testing.assert_array_equal(eq.state.x, 0)
        np.testing.assert_allclose(eq.state.y, 0.0, atol=1e-12)
        assert eq.state_class.full_class == "all-defection-consensus"
        assert report.boundary_equilibria == ()

    def test_cooperation_regime_has_both_consensus_states(self, params_r38, complete4):
        report = enumerate_equilibria(params_r38, complete4)
        profiles = {tuple(int(v) for v in eq.state.x) for eq in report.equilibria}
        assert (0, 0, 0, 0) in profiles
        assert (1, 1, 1, 1) in profiles

    def test_tie_profile_lands_in_boundary_bucket(self):
        net = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
        p = ModelParams.uniform(2, 1.5, 1 / 3, 1 / 3, 1 / 3)
        report = enumerate_equilibria(p, net)
        strict = {tuple(int(v) for v in eq.state.x) for eq in report.equilibria}
        boundary = {tuple(int(v) for v in eq.state.x) for eq in report.boundary_equilibria}
        assert strict == {(0, 0)}
        assert (1, 1) in boundary

    def test_refuses_oversized_instances(self, rng):
        n = 17
        params = random_interior_params(rng, n)
        net = random_row_stochastic(rng, n)
        with pytest.raises(ValueError, match="131072"):
            enumerate_equilibria(params, net)
        report = enumerate_equilibria(params, net, max_n=17)
        assert report.action_profiles_scanned == 2**17

    def test_ordering_by_cooperator_count(self, params_r38, complete4):
        report = enumerate_equilibria(params_r38, complete4)
        counts = [int(eq.state.x.sum()) for eq in report.equilibria]
        assert counts == sorted(counts)

    def test_members_pass_independent_checks(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            params = random_interior_params(rng, n)
            net = random_row_stochastic(rng, n)
            report = enumerate_equilibria(params, net)
            for eq in report.equilibria:
                assert verify_nash(eq.state, params, net, tol=1e-9).is_nash
                assert is_fixed_point(eq.state, params, net, tol=1e-9)
                assert eq.residual <= 1e-10
            assert report.solver_residuals <= 1e-10

    def test_membership_complete_against_grid_oracle(self):
        # exhaustive low-resolution oracle: a grid point (x, y) counts as an
        # equilibrium candidate iff each action matches the discriminant sign
        # and each opinion sits within one grid cell of its best response;
        # every accepted point must sit near an enumerated equilibrium
        resolution = 1e-2
        grid = np.linspace(0.0, 1.0, 101)
        cases = [
            (2, 1.3, np.array([[0.0, 1.0], [1.0, 0.0]])),
            (2, 1.9, np.array([[0.0, 1.0], [1.0, 0.0]])),
            (3, 2.9, None),
            (3, 1.4, None),
        ]
        for n, r, W in cases:
            net = Network(W) if W is not None else complete_network(n)
            params = ModelParams.uniform(n, r, 0.3, 0.4, 0.3)
            report = enumerate_equilibria(params, net)
            enumerated = {
                tuple(int(v) for v in eq.state.x): eq.state.y
                for eq in list(report.equilibria) + list(report.boundary_equilibria)
            }
            axes = np.meshgrid(*([grid] * n), indexing="ij")
            Y = np.stack([a.ravel() for a in axes], axis=-1)
            social = Y @ net.W.T
            deltas = params.alpha * (params.r / n - 1.0) + (
                params.beta * params.lam / (params.beta + params.lam)
            ) * (
                params.gamma * params.prejudice
                + (1.0 - params.gamma) * social
                - 0.5
            )
            spot = np.array([discriminant(i, Y[0], params, net) for i in range(n)])
            np.testing.assert_allclose(deltas[0], spot, atol=1e-12)
            decisive = ~np.any(np.abs(deltas) <= 2 * resolution, axis=1)
            phi = params.beta / (params.beta + params.lam)
            psi = params.lam / (params.beta + params.lam)
            for x_bits in itertools.product((0, 1), repeat=n):
                x = np.array(x_bits, dtype=np.int64)
                actions_ok = np.all((deltas > 0) == (x == 1), axis=1)
                y_best = phi * social + psi * x
                opinions_ok = np.max(np.abs(Y - y_best), axis=1) <= 2 * resolution
                accepted = decisive & actions_ok & opinions_ok
                for idx in np.flatnonzero(accepted):
                    assert x_bits in enumerated, (n, r, x_bits, Y[idx])
                    np.testing.assert_allclose(
                        Y[idx], enumerated[x_bits], atol=5 * resolution
                    )


class TestSweep:
    def test_defection_cell_converges_everywhere(self, complete4):
        table = sweep(
            {"r": [2.0], "alpha": [1 / 3], "beta": [1 / 3]},
            complete4,
            trials=10,
            seed=3,
        )
        assert len(table.cells) == 1
        cell = table.cells[0]
        assert cell.all_defection_unique
        assert not cell.all_cooperation_exists
        assert cell.equilibrium_count == 1
        assert cell.outcome_frequencies == {"all-defection-consensus": 1.0}
        assert cell.trials == 10

    def test_high_return_cell_has_both_equilibria(self, complete4):
        table = sweep(
            {"r": [3.8], "alpha": [1 / 3], "beta": [1 / 3]},
            complete4,
            trials=8,
            seed=3,
        )
        cell = table.cells[0]
        assert not cell.all_defection_unique
        assert cell.all_cooperation_exists
        assert cell.equilibrium_count == 2

    def test_empty_grid(self, complete4):
        table = sweep({"r": [], "alpha": [1 / 3], "beta": [1 / 3]}, complete4)
        assert table.cells == ()
        assert table.invalid_cells == ()

    def test_invalid_cells_skipped_with_reason(self, complete4):
        table = sweep(
            {"r": [2.0, 4.0], "alpha": [1 / 3], "beta": [1 / 3]},
            complete4,
            trials=2,
            seed=0,
        )
        assert len(table.cells) == 1
        assert len(table.invalid_cells) == 1
        bad = table.invalid_cells[0]
        assert bad[0] == {"r": 4.0, "alpha": 1 / 3, "beta": 1 / 3}
        assert "1 < r < n" in bad[1]

    def test_overweight_cells_skipped(self, complete4):
        table = sweep(
            {"r": [2.0], "alpha": [0.7], "beta": [0.5]},
            complete4,
            trials=2,
            seed=0,
        )
        assert table.cells == ()
        assert len(table.invalid_cells) == 1

    def test_deterministic_under_seed(self, complete4):
        kwargs = dict(trials=6, seed=11)
        a = sweep({"r": [2.0, 3.8], "alpha": [1 / 3], "beta": [1 / 3]}, complete4, **kwargs)
        b = sweep({"r": [2.0, 3.8], "alpha": [1 / 3], "beta": [1 / 3]}, complete4, **kwargs)
        assert a == b

    def test_warns_on_noncompliant_schedule(self, complete4):
        with pytest.warns(UserWarning, match="iid-random"):
            sweep(
                {"r": [2.0], "alpha": [1 / 3], "beta": [1 / 3]},
                complete4,
                schedule_kind="iid-random",
                trials=2,
                seed=0,
            )

    def test_unknown_schedule_kind_is_refused_before_any_cell(self, complete4):
        # r = 5 > n makes every cell invalid, so no cell ever builds a schedule
        with pytest.raises(ValueError, match="unknown schedule kind 'bogus'"):
            sweep({"r": [5.0], "alpha": [1 / 3], "beta": [1 / 3]}, complete4, schedule_kind="bogus")

    def test_one_node_network_is_refused_before_any_cell(self):
        with pytest.raises(ValueError, match="schedules need n >= 2, got 1"):
            sweep({"r": [2.0], "alpha": [1 / 3], "beta": [1 / 3]}, Network(np.ones((1, 1))))

    def test_large_network_skips_enumeration_and_boundary_cells(self):
        # n = 17 is past ENUMERATION_MAX_N, and alpha + beta = 1 leaves lam = 0
        table = sweep(
            {"r": [2.0], "alpha": [0.5], "beta": [0.5, 0.3]},
            ring_network(ENUMERATION_MAX_N + 1),
            trials=2,
            seed=0,
            max_steps=50,
        )
        assert table.invalid_cells == (
            (
                {"r": 2.0, "alpha": 0.5, "beta": 0.5},
                "player 1: the consensus conditions are stated for the strict interior "
                "(alpha, beta, lam inside (0, 1), gamma = 0), got lam=0.0",
            ),
        )
        (cell,) = table.cells
        assert (cell.alpha, cell.beta) == (0.5, 0.3)
        assert cell.equilibrium_count is None and cell.boundary_count is None
        assert cell.trials == 2

    def test_one_cell_scans_the_interior_and_decides_the_conditions_once(self, monkeypatch):
        calls = []
        for module, name in ((equilibria_module, "_interior_fault"), (model_module, "_interior_fault"),
                             (equilibria_module, "_stationarity")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        # past ENUMERATION_MAX_N, so no enumeration makes a stationarity pass of its own
        table = sweep(
            {"r": [2.0], "alpha": [0.4], "beta": [0.3]},
            ring_network(ENUMERATION_MAX_N + 1),
            trials=1,
            seed=0,
            max_steps=50,
        )
        assert len(table.cells) == 1
        assert sorted(calls) == ["_interior_fault", "_stationarity"]

    def test_one_sweep_runs_every_trial_as_one_batch(self, monkeypatch):
        batches = []
        real = equilibria_module._run_trials
        monkeypatch.setattr(equilibria_module, "_run_trials", lambda *a: batches.append(len(a[0])) or real(*a))
        grid = {"r": [1.5, 2.0, 3.5], "alpha": [0.4, 0.55], "beta": [0.3, 0.45]}
        table = sweep(grid, ring_network(5), "shuffled-rounds", trials=4, seed=2, max_steps=80)
        # alpha 0.55 with beta 0.45 leaves no consistency weight: three cells skipped
        assert (len(table.cells), len(table.invalid_cells)) == (9, 3)
        assert batches == [9 * 4]

    def test_trials_build_no_system_state(self, monkeypatch):
        built = []
        post_init = SystemState.__post_init__
        monkeypatch.setattr(SystemState, "__post_init__", lambda state: built.append(state) or post_init(state))
        # past ENUMERATION_MAX_N, so no enumeration builds its equilibria either
        table = sweep(
            {"r": [2.0], "alpha": [0.4], "beta": [0.3]},
            ring_network(ENUMERATION_MAX_N + 1),
            trials=5,
            seed=0,
            max_steps=50,
        )
        assert table.cells[0].trials == 5
        assert built == []

    def test_missing_grid_axis_rejected(self, complete4):
        with pytest.raises(ValueError, match="grid"):
            sweep({"r": [2.0], "alpha": [1 / 3]}, complete4)

    def test_unknown_grid_axis_rejected(self, complete4):
        with pytest.raises(ValueError, match=re.escape("unknown grid axes ['gamma']; use r, alpha, beta")):
            sweep({"r": [2.0], "alpha": [1 / 3], "beta": [1 / 3], "gamma": [0.1]}, complete4)

    @pytest.mark.parametrize(
        "argument,message",
        [
            ({"trials": 2.5}, "trials must be an integer >= 1, got 2.5"),
            ({"trials": 0}, "trials must be an integer >= 1, got 0"),
            # past sys.maxsize numpy cannot spawn the trials' seeds
            ({"trials": 2**63}, "trials must be at most 9223372036854775807, got 9223372036854775808"),
            ({"trials": 10**20}, "trials must be at most 9223372036854775807, got 100000000000000000000"),
            ({"seed": -1}, "seed must be a non-negative integer, got -1"),
            ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
            ({"r": [2.0, "2.5"]}, "grid axis r: values must be real numbers, got '2.5'"),
            ({"alpha": [True]}, "grid axis alpha: values must be real numbers, got True"),
            ({"beta": [None]}, "grid axis beta: values must be real numbers, got None"),
            ({"max_steps": 0}, "max_steps must be an integer >= 1, got 0"),
            ({"max_steps": 2.5}, "max_steps must be an integer >= 1, got 2.5"),
        ],
    )
    def test_bad_argument_is_named_before_any_cell(self, complete4, monkeypatch, argument, message):
        # float() would read "2.5" and True as numbers, and numpy would refuse
        # the trials and seeds with messages that name no argument
        monkeypatch.setattr(equilibria_module, "check_all_defection_unique", _no_cell)
        grid = {"r": [2.0], "alpha": [1 / 3], "beta": [1 / 3]}
        axes = {k: v for k, v in argument.items() if k in grid}
        options = {k: v for k, v in argument.items() if k not in grid}
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep({**grid, **axes}, complete4, **{"max_steps": 50, **options})

    def test_numpy_numbers_are_accepted(self, complete4):
        grid = {"r": [2.0, 3.5], "alpha": [0.25], "beta": [0.5]}
        want = sweep(grid, complete4, trials=3, seed=4, max_steps=200)
        got = sweep(
            {"r": [np.float64(2.0), np.int64(3.5 * 2) / 2], "alpha": [np.float32(0.25)], "beta": [0.5]},
            complete4,
            trials=np.int64(3),
            seed=np.uint8(4),
            max_steps=200,
        )
        assert got == want
        # the table holds Python numbers, so it renders as the Python-typed one does
        assert render_json(sweep_table_to_jsonable(got)) == render_json(sweep_table_to_jsonable(want))


def _no_cell(*args, **kwargs):
    raise AssertionError("a sweep cell ran")


class TestRegimeInstanceGenerators:
    def test_defection_regime_satisfies_condition(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 11))
            params = defection_regime_params(rng, n)
            net = random_row_stochastic(rng, n)
            assert check_all_defection_unique(params).all_hold

    def test_cooperation_regime_satisfies_condition(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 11))
            params = cooperation_regime_params(rng, n)
            net = random_row_stochastic(rng, n)
            assert check_all_cooperation_exists(params).all_hold


def _loop_verify_nash(state, params, net, tol=1e-9):
    """Reference for verify_nash: one best_response call per player."""
    for i in range(params.n):
        br = best_response(i, state.y, params, net)
        xi = int(state.x[i])
        if xi not in br.actions:
            return NashCheck(False, i, br.entries[0])
        if abs(state.y[i] - br.opinion_for(xi)) > tol:
            return NashCheck(False, i, (xi, br.opinion_for(xi)))
    return NashCheck(True)


def _loop_is_fixed_point(state, params, net, tol=1e-9):
    """Reference for is_fixed_point: every action is the tie-to-defect
    discriminant sign and every opinion is within tol of its optimum."""
    for i in range(params.n):
        br = best_response(i, state.y, params, net)
        xi = int(state.x[i])
        if xi != int(br.discriminant_value > DISCRIMINANT_TIE_TOL):
            return False
        if abs(state.y[i] - br.opinion_for(xi)) > tol:
            return False
    return True


ORACLE_KINDS = ("plain", "attached", "tied")


def _oracle_instance(seed, kind):
    """Random instance with n <= 7.

    "attached" gives some players prejudice; "tied" shares one set of weights
    and puts r on the condition boundary, so all-cooperation consensus is a
    Nash equilibrium only by the tie rule.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    net = random_row_stochastic(rng, n)
    if kind == "tied":
        return rng, tied_params(rng, n), net
    params = random_interior_params(rng, n)
    if kind == "attached":
        params = ModelParams(
            n=n, r=params.r, alpha=params.alpha, beta=params.beta, lam=params.lam,
            gamma=rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.5), prejudice=rng.random(n),
        )
    return rng, params, net


def _oracle_states(rng, params, net):
    """Random states and states with every opinion 1, plus for zero prejudice
    attachment the exact stationary opinions of random profiles and of every
    equilibrium; each also with one opinion nudged off its optimum."""
    n = params.n
    states = [SystemState(rng.integers(0, 2, size=n), rng.random(n)) for _ in range(3)]
    states.append(SystemState(rng.integers(0, 2, size=n), np.ones(n)))
    if (params.gamma == 0.0).all():
        report = enumerate_equilibria(params, net)
        states += [eq.state for eq in report.equilibria + report.boundary_equilibria]
        for _ in range(3):
            x = rng.integers(0, 2, size=n)
            states.append(SystemState(x, solve_opinion_equilibrium(x, params, net)))
    for state in list(states):
        y = state.y.copy()
        k = int(rng.integers(n))
        y[k] = abs(y[k] - float(rng.choice([1e-10, 1e-6])))
        states.append(SystemState(state.x, y))
    return states


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ORACLE_KINDS))
def test_verify_nash_matches_per_player_loop(seed, kind):
    rng, params, net = _oracle_instance(seed, kind)
    for state in _oracle_states(rng, params, net):
        assert verify_nash(state, params, net) == _loop_verify_nash(state, params, net)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ORACLE_KINDS))
def test_is_fixed_point_matches_per_player_loop(seed, kind):
    rng, params, net = _oracle_instance(seed, kind)
    for state in _oracle_states(rng, params, net):
        for tol in (1e-9, 1e-7):
            assert is_fixed_point(state, params, net, tol=tol) == _loop_is_fixed_point(
                state, params, net, tol=tol
            )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("plain", "tied")))
def test_enumeration_matches_per_profile_scan(seed, kind):
    _, params, net = _oracle_instance(seed, kind)
    strict, boundary = {}, {}
    for bits in itertools.product((0, 1), repeat=params.n):
        x = np.array(bits)
        state = SystemState(x, solve_opinion_equilibrium(x, params, net))
        responses = [best_response(i, state.y, params, net) for i in range(params.n)]
        if all(xi == int(br.discriminant_value > DISCRIMINANT_TIE_TOL) for xi, br in zip(bits, responses)):
            strict[bits] = state.y
        elif all(xi in br.actions for xi, br in zip(bits, responses)):
            boundary[bits] = state.y
    report = enumerate_equilibria(params, net)
    for found, expected in ((report.equilibria, strict), (report.boundary_equilibria, boundary)):
        assert {tuple(int(v) for v in eq.state.x) for eq in found} == set(expected)
        for eq in found:
            np.testing.assert_allclose(
                eq.state.y, expected[tuple(int(v) for v in eq.state.x)], atol=1e-12
            )


SCAN_KINDS = ("sparse", "tied", "edge")


def _scan_network(rng, n):
    """An asymmetric random network with zero entries and self-loops."""
    W = rng.uniform(0.05, 1.0, (n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 1.0))
    W[np.arange(n), (np.arange(n) + 1) % n] += W.sum(axis=1) == 0.0
    return Network.from_matrix(W, normalise=True)


def _scan_instances(seed, kind):
    """Instances with n <= 10 for the dense-scan oracle.

    "sparse": an asymmetric W with zero entries and self-loops, per-player
    weights, some players with beta = 0 (no opinion coupling) or alpha = 0.
    "tied" shares one set of weights and puts r where all-cooperation has a
    zero discriminant, so it is an equilibrium only by the tie rule. "edge"
    puts that discriminant at -DISCRIMINANT_TIE_TOL instead, for r and its
    float neighbours, where rounding decides whether all-cooperation is a
    boundary equilibrium: a prune without margin misses some of them.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    net = _scan_network(rng, n)
    if kind == "sparse":
        alpha = rng.uniform(0.0, 0.8, n) * (rng.random(n) < 0.9)
        beta = (1.0 - alpha) * rng.uniform(0.0, 0.95, n) * (rng.random(n) < 0.8)
        params = ModelParams(
            n=n, r=float(rng.uniform(1.0 + 1e-6, n)), alpha=alpha, beta=beta,
            lam=1.0 - alpha - beta, gamma=np.zeros(n), prejudice=np.full(n, 0.5),
        )
        return [(params, net)]
    if kind == "tied":
        return [(tied_params(rng, n), net)]
    return [(params, net) for params in edge_params(rng, n)]


def _profiles(equilibria):
    return [tuple(int(v) for v in eq.state.x) for eq in equilibria]


@pytest.mark.blas_bits
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(SCAN_KINDS))
def test_enumeration_matches_dense_scan_bit_for_bit(seed, kind):
    for params, net in _scan_instances(seed, kind):
        report = enumerate_equilibria(params, net)
        expected = scan_equilibria(params, net)
        for found, want in (
            (report.equilibria, expected.equilibria),
            (report.boundary_equilibria, expected.boundary_equilibria),
        ):
            assert _profiles(found) == _profiles(want)
            for eq, ref in zip(found, want):
                assert np.array_equal(eq.state.y, ref.state.y)
                assert eq.state.y.tobytes() == ref.state.y.tobytes()  # -0.0 too
                assert eq.residual == ref.residual
                assert eq.state_class == ref.state_class
        assert report.action_profiles_scanned == expected.action_profiles_scanned
        assert report.solver_residuals == expected.solver_residuals


def test_accepted_states_are_checked_once_as_one_array(monkeypatch):
    # an 8-ring with 10 equilibria of several sizes: each state is built
    # unchecked after one check of them all
    params, net = ModelParams.uniform(8, 6.8, 0.15, 0.45), ring_network(8)
    checks, built = [], []
    real = equilibria_module._check_state
    monkeypatch.setattr(equilibria_module, "_check_state", lambda *a: checks.append(a) or real(*a))
    post_init = SystemState.__post_init__
    monkeypatch.setattr(SystemState, "__post_init__", lambda state: built.append(state) or post_init(state))
    report = enumerate_equilibria(params, net)
    monkeypatch.undo()
    found = report.equilibria + report.boundary_equilibria
    assert len(report.equilibria) == 10 and built == []
    ((X, Y),) = checks
    assert (X.shape, Y.shape) == ((len(found), 8), (len(found), 8))
    assert {tuple(x) for x in X.tolist()} == {tuple(eq.state.x.tolist()) for eq in found}
    for eq in found:
        assert eq.state == SystemState(eq.state.x, eq.state.y)
        assert (eq.state.x.dtype, eq.state.y.dtype) == (np.int64, np.float64)
        assert not (eq.state.x.flags.writeable or eq.state.y.flags.writeable)


def _stacked_problem(rng, n):
    """Weights and r for one problem of a stacked pass: strict-interior weights with
    r anywhere, in the cooperation regime, on the tie, or at the tie band's edge."""
    kind = int(rng.integers(4))
    if kind == 0:
        return random_interior_params(rng, n)
    if kind == 1:
        return cooperation_regime_params(rng, n)
    if kind == 2:
        return tied_params(rng, n)
    return edge_params(rng, n)[int(rng.integers(9))]


@pytest.mark.blas_bits
@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_stacked_pass_gives_each_problem_the_leaves_of_its_own_pass(seed, count):
    # a stacked pass gathers each interval's social map and terms, where a lone
    # problem takes one product for all its intervals
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    net = _scan_network(rng, n)
    problems = [_stacked_problem(rng, n) for _ in range(count)]
    stacked = equilibria_module._candidate_profiles(net, problems)
    assert len(stacked) == count
    for leaves, params in zip(stacked, problems):
        (alone,) = equilibria_module._candidate_profiles(net, [params])
        assert leaves.dtype == alone.dtype == bool and leaves.shape[1] == n
        assert sorted(map(tuple, leaves.tolist())) == sorted(map(tuple, alone.tolist()))


@pytest.mark.blas_bits
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sweep_counts_match_enumeration_cell_by_cell(seed):
    # every valid cell is one problem of one stacked pass; a cell with lam = 0 is
    # skipped and enumerates nothing
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 11))
    net = _scan_network(rng, n)
    grid = {
        "r": sorted({float(v) for v in rng.uniform(1.0 + 1e-6, n, int(rng.integers(1, 4)))}),
        "alpha": [float(rng.uniform(0.05, 0.45)), 0.5],
        "beta": [float(rng.uniform(0.05, 0.4)), 0.5],
    }
    table = sweep(grid, net, "synchronous", trials=1, seed=0, max_steps=20)
    assert len(table.invalid_cells) == len(grid["r"])  # alpha = beta = 0.5 leaves lam = 0
    assert len(table.cells) == 3 * len(grid["r"])
    for cell in table.cells:
        report = enumerate_equilibria(ModelParams.uniform(n, cell.r, cell.alpha, cell.beta, cell.lam), net)
        assert (cell.equilibrium_count, cell.boundary_count) == (
            len(report.equilibria), len(report.boundary_equilibria)
        )


def test_ring_enumeration_beyond_the_default_limit():
    # a dense scan would hold 2^32 x 32 opinions (1 TiB); branch and bound
    # finds the ring's 1450 equilibria, and rotating a ring maps equilibria
    # to equilibria
    n = 32
    params = ModelParams.uniform(n, 0.85 * n, 0.15, 0.45)
    net = ring_network(n)
    report = enumerate_equilibria(params, net, max_n=n)
    assert report.action_profiles_scanned == 2**n
    profiles = set(_profiles(report.equilibria))
    assert len(profiles) == len(report.equilibria) == 1450
    for eq in report.equilibria:
        assert verify_nash(eq.state, params, net).is_nash
        assert is_fixed_point(eq.state, params, net)
    for x in profiles:
        for shift in range(1, n):
            assert x[shift:] + x[:shift] in profiles


_Y4 = np.full(4, 0.5)
_STATE4 = SystemState(np.zeros(4), _Y4)


@pytest.mark.parametrize(
    "call",
    [
        lambda p, net: best_response(0, _Y4, p, net),
        lambda p, net: discriminant(0, _Y4, p, net),
        lambda p, net: opinion_payoff(0, _Y4, p, net),
        lambda p, net: total_payoff(0, _STATE4, p, net),
        lambda p, net: step(_STATE4, [0], p, net),
        lambda p, net: run(_STATE4, make_schedule("round-robin", 4), p, net, max_steps=5),
        lambda p, net: is_fixed_point(_STATE4, p, net),
        lambda p, net: verify_nash(_STATE4, p, net),
        lambda p, net: solve_opinion_equilibrium(np.zeros(4), p, net),
        lambda p, net: enumerate_equilibria(p, net),
        lambda p, net: potential(_Y4, p, net),
        lambda p, net: potential_quadratic(_Y4, p, net),
        lambda p, net: potential_matrix(p, net),
        lambda p, net: potential_matrix_is_positive_definite(p, net),
    ],
    ids=[
        "best_response", "discriminant", "opinion_payoff", "total_payoff", "step", "run",
        "is_fixed_point", "verify_nash", "solve_opinion_equilibrium", "enumerate_equilibria",
        "potential", "potential_quadratic", "potential_matrix",
        "potential_matrix_is_positive_definite",
    ],
)
def test_network_of_another_size_is_refused(params_r2, call):
    with pytest.raises(ValueError, match="size mismatch: .*params 4, network 5"):
        call(params_r2, complete_network(5))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda p, net, tol: run(
            _STATE4, make_schedule("round-robin", 4), p, net, max_steps=5, fixed_point_tol=tol
        ),
        lambda p, net, tol: sweep(
            {"r": [2.0], "alpha": [1 / 3], "beta": [1 / 3]}, net, trials=1, fixed_point_tol=tol
        ),
    ],
    ids=["run", "sweep"],
)
def test_fixed_point_tol_must_be_finite_and_positive(params_r2, complete4, call, tol):
    with pytest.raises(ValueError, match=f"^fixed_point_tol must be finite and positive, got {tol}$"):
        call(params_r2, complete4, tol)
