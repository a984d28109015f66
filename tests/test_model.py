import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coevo.model as model_module
from coevo.dynamics import potential, potential_quadratic
from coevo.equilibria import solve_opinion_equilibrium
from coevo.model import (
    DISCRIMINANT_TIE_TOL,
    BestResponseSet,
    ModelParams,
    Network,
    SystemState,
    best_response,
    discriminant,
    opinion_payoff,
    pgg_payoff,
    social_term,
    total_payoff,
)
from instances import random_interior_params, random_row_stochastic, random_state


class TestModelParams:
    def test_uniform_constructor(self):
        p = ModelParams.uniform(4, 2.0, 1 / 3, 1 / 3, 1 / 3)
        assert p.n == 4
        assert p.r == 2.0
        np.testing.assert_array_equal(p.alpha, np.full(4, 1 / 3))
        assert p.strict_interior

    def test_lam_defaults_to_remainder(self):
        p = ModelParams.uniform(3, 1.5, 0.2, 0.5)
        np.testing.assert_allclose(p.lam, 0.3, atol=1e-12)

    def test_r_must_be_inside_open_interval(self):
        with pytest.raises(ValueError, match="1 < r < n"):
            ModelParams.uniform(4, 4.0, 1 / 3, 1 / 3, 1 / 3)
        with pytest.raises(ValueError, match="1 < r < n"):
            ModelParams.uniform(4, 1.0, 1 / 3, 1 / 3, 1 / 3)

    def test_weight_sum_violation_names_player(self):
        with pytest.raises(ValueError, match="player 2"):
            ModelParams(
                n=2,
                r=1.5,
                alpha=np.array([0.4, 0.4]),
                beta=np.array([0.3, 0.3]),
                lam=np.array([0.3, 0.2]),
                gamma=np.zeros(2),
                prejudice=np.full(2, 0.5),
            )

    def test_weight_sum_tolerance_accepts_dust(self):
        lam = 1.0 - 0.4 - 0.3 + 5e-13
        p = ModelParams.uniform(2, 1.5, 0.4, 0.3, lam)
        assert p.strict_interior

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ModelParams.uniform(2, 1.5, -0.1, 0.6, 0.5)

    def test_strict_interior_false_on_boundary_weight(self):
        p = ModelParams.uniform(2, 1.5, 0.0, 0.5, 0.5)
        assert not p.strict_interior

    def test_strict_interior_false_with_prejudice_attachment(self):
        p = ModelParams.uniform(4, 2.0, 1 / 3, 1 / 3, 1 / 3, gamma=0.2)
        assert not p.strict_interior

    def test_needs_two_players(self):
        with pytest.raises(ValueError, match="at least 2"):
            ModelParams.uniform(1, 0.5, 1 / 3, 1 / 3, 1 / 3)

    @staticmethod
    def _four_players(n) -> ModelParams:
        third = np.full(4, 1 / 3)
        return ModelParams(n=n, r=2.0, alpha=third, beta=third, lam=third, gamma=np.zeros(4), prejudice=third)

    @pytest.mark.parametrize("n", [4.9, 4.0, "4", True, np.float64(4.0)])
    def test_player_count_must_be_an_integer(self, n):
        # int() would truncate 4.9 and parse "4" into a 4-player game
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
            self._four_players(n)

    def test_numpy_integer_player_count_is_accepted(self):
        p = self._four_players(np.int64(4))
        assert p.n == 4 and type(p.n) is int

    @pytest.mark.parametrize(
        "field, values, message",
        [
            ("alpha", np.full(3, 1 / 3), "alpha must have length 4, got shape (3,)"),
            ("beta", np.array([1 / 3, np.nan, 1 / 3, 1 / 3]), "beta contains non-finite entries"),
        ],
    )
    def test_malformed_weight_vector_is_named(self, field, values, message):
        third = np.full(4, 1 / 3)
        weights = dict(alpha=third, beta=third, lam=third, gamma=np.zeros(4), prejudice=third)
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            ModelParams(n=4, r=2.0, **{**weights, field: values})

    def test_arrays_are_read_only(self):
        p = ModelParams.uniform(2, 1.5, 1 / 3, 1 / 3, 1 / 3)
        with pytest.raises(ValueError):
            p.alpha[0] = 0.9


class TestNetwork:
    def test_row_sum_enforced(self):
        with pytest.raises(ValueError, match="row 1"):
            Network(np.array([[0.5, 0.48], [0.5, 0.5]]))

    def test_row_sum_dust_tolerated(self):
        W = np.array([[0.5, 0.5 + 5e-10], [0.5, 0.5]])
        net = Network(W)
        assert net.n == 2

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative weight"):
            Network(np.array([[1.2, -0.2], [0.5, 0.5]]))

    def test_self_loops_permitted(self):
        net = Network(np.array([[0.5, 0.5], [0.25, 0.75]]))
        assert net.W[1, 1] == 0.75

    def test_normalise_divides_rows(self):
        net = Network.from_matrix(np.array([[0.0, 2.0], [3.0, 1.0]]), normalise=True)
        np.testing.assert_allclose(net.W, [[0.0, 1.0], [0.75, 0.25]])

    def test_normalise_rejects_zero_row(self):
        with pytest.raises(ValueError, match="row 2"):
            Network.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), normalise=True)

    def test_symmetry_flag_is_exact(self):
        sym = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert sym.is_symmetric
        asym = Network(np.array([[0.5, 0.5], [1.0, 0.0]]))
        assert not asym.is_symmetric

    def test_irreducibility_flag(self):
        connected = Network(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert connected.is_irreducible
        # node 2 never influences node 1
        dag = Network(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert not dag.is_irreducible

    @pytest.mark.parametrize(
        "W, irreducible",
        [
            ([[1.0]], True),
            (np.eye(3), False),
            # a chain: node 1 influences node 2, node 2 influences node 3
            ([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], False),
            # two 2-cycles joined one way, once in each orientation from node 1
            ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0.5, 0, 0.5], [0, 0, 1, 0]], False),
            ([[0, 0.5, 0.5, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], False),
            ([[0, 0.5, 0, 0.5], [1, 0, 0, 0], [0, 0.5, 0, 0.5], [0, 0, 1, 0]], True),
        ],
        ids=["single-node", "self-loops-only", "chain", "blocks-in", "blocks-out", "blocks-both"],
    )
    def test_irreducibility_fixed_cases(self, W, irreducible):
        assert Network(np.array(W, dtype=float)).is_irreducible is irreducible

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            Network(np.ones((2, 3)) / 3)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Network(np.zeros((0, 0))), "influence matrix must have at least one node"),
            (lambda: Network(np.array([[np.nan, 1.0], [1.0, 0.0]])), "influence matrix contains non-finite entries"),
            (lambda: Network.from_matrix(np.ones((2, 3)), normalise=True), "influence matrix must be square, got shape (2, 3)"),
            # a row sum past the largest double is inf, without numpy's overflow
            # warning, and normalising does not divide the row into zeros
            (lambda: Network([[1e308, 1e308], [1.0, 1.0]]), "row 1 of the influence matrix sums to inf, must be 1"),
            (lambda: Network.from_matrix([[1e308, 1e308], [1.0, 1.0]], normalise=True), "row 1 sums to inf and cannot be normalised"),
        ],
        ids=["empty", "nan", "normalise-non-square", "overflowing-row-sum", "normalise-overflowing-row-sum"],
    )
    def test_malformed_matrix_rejected(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            build()


class TestSystemState:
    def test_actions_must_be_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            SystemState(np.array([0, 2]), np.array([0.5, 0.5]))

    def test_opinions_must_be_in_unit_interval(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SystemState(np.array([0, 1]), np.array([0.5, 1.5]))

    @pytest.mark.parametrize(
        "x, y, message",
        [
            (["a", "b"], [0.5, 0.5], "actions must be numeric 0/1 values"),
            (np.zeros((2, 2)), np.zeros((2, 2)), "action vector must be 1-d, got shape (2, 2)"),
        ],
        ids=["text", "2-d"],
    )
    def test_malformed_vectors_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            SystemState(x, y)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            SystemState(np.array([0, 1]), np.array([0.5]))

    def test_equality_is_by_value(self):
        a = SystemState(np.array([0, 1]), np.array([0.25, 0.75]))
        b = SystemState(np.array([0, 1]), np.array([0.25, 0.75]))
        c = SystemState(np.array([1, 1]), np.array([0.25, 0.75]))
        assert a == b
        assert a != c

    def test_presets(self):
        z = SystemState.all_defection(3)
        assert (z.x == 0).all() and (z.y == 0.0).all()
        o = SystemState.all_cooperation(3)
        assert (o.x == 1).all() and (o.y == 1.0).all()


class TestPggPayoff:
    def test_no_contributors_no_reward(self, params_r2):
        assert pgg_payoff(0, np.zeros(4), params_r2) == 0.0

    def test_everyone_cooperates(self, params_r2):
        assert pgg_payoff(0, np.ones(4), params_r2) == pytest.approx(1.0, abs=1e-12)

    def test_lone_cooperator_both_branches(self, params_r2):
        x = np.array([1, 0, 0, 0])
        assert pgg_payoff(0, x, params_r2) == pytest.approx(-0.5, abs=1e-12)
        assert pgg_payoff(1, x, params_r2) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_non_binary(self, params_r2):
        with pytest.raises(ValueError, match="0 or 1"):
            pgg_payoff(0, np.array([0.5, 0, 0, 0]), params_r2)

    def test_rejects_bad_index(self, params_r2):
        with pytest.raises(IndexError):
            pgg_payoff(4, np.zeros(4), params_r2)


class TestOpinionPayoff:
    def test_consensus_is_free(self, params_r2, complete4):
        for c in (0.0, 0.3, 1.0):
            assert opinion_payoff(0, np.full(4, c), params_r2, complete4) == 0.0

    def test_disagreement_cost(self, params_r2, complete4):
        y = np.array([0.5, 1.0, 1.0, 0.0])
        assert opinion_payoff(0, y, params_r2, complete4) == pytest.approx(-0.125, abs=1e-12)

    def test_pure_prejudice_term(self, complete4):
        p = ModelParams.uniform(4, 2.0, 1 / 3, 1 / 3, 1 / 3, gamma=1.0, prejudice=0.3)
        y = np.array([0.8, 0.1, 0.9, 0.4])
        assert opinion_payoff(0, y, p, complete4) == pytest.approx(-0.125, abs=1e-12)


class TestTotalPayoff:
    def test_all_defection_zero(self, params_r2, complete4):
        state = SystemState.all_defection(4)
        for i in range(4):
            assert total_payoff(i, state, params_r2, complete4) == 0.0

    def test_all_cooperation(self, params_r2, complete4):
        state = SystemState.all_cooperation(4)
        for i in range(4):
            assert total_payoff(i, state, params_r2, complete4) == pytest.approx(
                1 / 3, abs=1e-12
            )

    def test_lone_cooperator_with_defect_opinions(self, params_r2, complete4):
        state = SystemState(np.array([1, 0, 0, 0]), np.zeros(4))
        assert total_payoff(0, state, params_r2, complete4) == pytest.approx(
            -1 / 3, abs=1e-12
        )

    def test_decomposition_matches_parts(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            params = random_interior_params(rng, n)
            net = random_row_stochastic(rng, n)
            state = random_state(rng, n)
            for i in range(n):
                expected = (
                    params.alpha[i] * pgg_payoff(i, state.x, params)
                    + params.beta[i] * opinion_payoff(i, state.y, params, net)
                    - 0.5 * params.lam[i] * (state.x[i] - state.y[i]) ** 2
                )
                assert total_payoff(i, state, params, net) == pytest.approx(
                    expected, abs=1e-12
                )


    def test_checks_the_built_state_no_further(self, params_r2, complete4, monkeypatch):
        # the state checked both vectors when it was built; the public payoffs
        # each check theirs again, the joint payoff neither
        state = SystemState(np.array([1, 0, 1, 0]), np.array([0.2, 0.4, 0.6, 0.8]))
        calls = []
        real = model_module._check_state
        monkeypatch.setattr(model_module, "_check_state", lambda *a: calls.append(a) or real(*a))
        joint = total_payoff(1, state, params_r2, complete4)
        assert calls == []
        parts = (
            params_r2.alpha[1] * pgg_payoff(1, state.x, params_r2)
            + params_r2.beta[1] * opinion_payoff(1, state.y, params_r2, complete4)
            - 0.5 * params_r2.lam[1] * float(state.x[1] - state.y[1]) ** 2
        )
        assert len(calls) == 2
        assert joint == parts


class TestSocialTerm:
    def test_extremes(self, complete4):
        assert social_term(0, np.ones(4), complete4) == pytest.approx(1.0, abs=1e-12)
        assert social_term(0, np.zeros(4), complete4) == 0.0

    def test_neighbour_average(self, complete4):
        y = np.array([0.2, 1.0, 1.0, 0.8])
        assert social_term(0, y, complete4) == pytest.approx(14 / 15, abs=1e-12)


class TestDiscriminant:
    def test_all_zero_opinions(self, params_r2, complete4):
        assert discriminant(0, np.zeros(4), params_r2, complete4) == pytest.approx(
            -0.25, abs=1e-12
        )

    def test_all_one_opinions(self, params_r2, complete4):
        assert discriminant(0, np.ones(4), params_r2, complete4) == pytest.approx(
            -1 / 12, abs=1e-12
        )

    def test_sign_flips_for_large_multiplier(self, params_r38, complete4):
        assert discriminant(0, np.ones(4), params_r38, complete4) == pytest.approx(
            1 / 15, abs=1e-12
        )

    def test_degenerate_weights_rejected(self, complete4):
        p = ModelParams.uniform(4, 2.0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="beta \\+ lam"):
            discriminant(0, np.zeros(4), p, complete4)

    def test_independent_of_actions_by_signature(self, rng):
        # the function takes no action vector at all; also check numerically
        # that it matches a recomputation after unrelated state changes
        n = 5
        params = random_interior_params(rng, n)
        net = random_row_stochastic(rng, n)
        y = rng.random(n)
        before = [discriminant(i, y, params, net) for i in range(n)]
        _ = SystemState(np.ones(n, dtype=np.int64), y)
        after = [discriminant(i, y, params, net) for i in range(n)]
        assert before == after


class TestBestResponse:
    def test_defect_regime_entry(self, params_r2, complete4):
        y = np.array([0.9, 0.6, 0.6, 0.6])
        br = best_response(0, y, params_r2, complete4)
        assert br.actions == (0,)
        assert br.opinion_for(0) == pytest.approx(0.3, abs=1e-12)
        assert br.discriminant_value < 0

    def test_cooperate_regime_entry(self, params_r38, complete4):
        br = best_response(0, np.ones(4), params_r38, complete4)
        assert br.actions == (1,)
        assert br.opinion_for(1) == pytest.approx(1.0, abs=1e-12)

    def test_tie_yields_both_actions(self, complete4):
        p = ModelParams.uniform(4, 2.0, 0.2, 0.4, 0.4)
        br = best_response(0, np.ones(4), p, complete4)
        assert abs(br.discriminant_value) <= DISCRIMINANT_TIE_TOL
        assert br.actions == (0, 1)
        assert br.opinion_for(0) == pytest.approx(0.5, abs=1e-12)
        assert br.opinion_for(1) == pytest.approx(1.0, abs=1e-12)

    def test_entries_beat_grid_alternatives(self, rng):
        ys = np.linspace(0.0, 1.0, 201)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            params = random_interior_params(rng, n)
            net = random_row_stochastic(rng, n)
            y = rng.random(n)
            i = int(rng.integers(n))
            br = best_response(i, y, params, net)
            for s, opinion in br.entries:
                x = rng.integers(0, 2, size=n).astype(np.int64)
                x[i] = s
                yy = y.copy()
                yy[i] = opinion
                achieved = total_payoff(i, SystemState(x, yy), params, net)
                for s_alt in (0, 1):
                    x_alt = x.copy()
                    x_alt[i] = s_alt
                    for y_alt in ys:
                        yy_alt = y.copy()
                        yy_alt[i] = y_alt
                        other = total_payoff(i, SystemState(x_alt, yy_alt), params, net)
                        assert achieved >= other - 1e-9

    def test_opinion_for_an_action_outside_the_set(self, params_r2, complete4):
        br = best_response(0, np.zeros(4), params_r2, complete4)
        assert br.actions == (0,)
        with pytest.raises(KeyError, match="action 1 is not a best response"):
            br.opinion_for(1)

    def test_best_response_set_arity_validated(self):
        with pytest.raises(ValueError, match="one or two"):
            BestResponseSet(entries=(), discriminant_value=0.0)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 10),
    density=st.floats(0.0, 1.0),
    self_loops=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_irreducibility_matches_closure(n, density, self_loops, seed):
    # strongly connected iff every entry of (I + A)^n is positive
    rng = np.random.default_rng(seed)
    A = rng.random((n, n)) < density
    if not self_loops:
        np.fill_diagonal(A, False)
    W = A * rng.uniform(0.1, 1.0, (n, n))
    empty = np.flatnonzero(~A.any(axis=1))
    W[empty, empty] = 1.0
    support = (W > 0.0).astype(np.int64)
    closure = np.linalg.matrix_power(np.eye(n, dtype=np.int64) + support, n)
    net = Network.from_matrix(W, normalise=True)
    assert net.is_irreducible is bool((closure > 0).all())


def _loaded_after(code: str) -> list[str]:
    """The modules of scipy, and ``coevo.arcsum``, that a fresh interpreter has
    loaded after ``import sys, coevo, coevo.cli`` and then ``code``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        f"import sys, coevo, coevo.cli; {code}; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'coevo.arcsum'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.split()


def test_import_loads_no_scipy():
    assert _loaded_after("pass") == []


@pytest.mark.parametrize(
    ("code", "loaded"),
    [
        # only a recorded run with a potential sums it
        ("coevo.sweep({'r': [2.0], 'alpha': [0.3], 'beta': [0.3]}, coevo.ring_network(8), trials=2)", []),
        ("coevo.enumerate_equilibria(coevo.ModelParams.uniform(8, 2.0, 0.3, 0.3), coevo.ring_network(8))", []),
        (
            "coevo.run(coevo.SystemState.all_cooperation(8), coevo.make_schedule('round-robin', 8), "
            "coevo.ModelParams.uniform(8, 2.0, 0.3, 0.3), coevo.ring_network(8), max_steps=20)",
            ["coevo.arcsum"],
        ),
    ],
)
def test_only_a_recorded_run_loads_the_arc_sum(code, loaded):
    assert _loaded_after(code) == loaded


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_best_response_opinion_stays_in_unit_interval(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    alpha = rng.uniform(0.05, 0.9, n)
    split = rng.uniform(0.05, 0.95, n)
    params = ModelParams(
        n=n,
        r=float(rng.uniform(1.01, n - 0.01)),
        alpha=alpha,
        beta=(1 - alpha) * split,
        lam=(1 - alpha) * (1 - split),
        gamma=rng.uniform(0.0, 1.0, n),
        prejudice=rng.uniform(0.0, 1.0, n),
    )
    net = random_row_stochastic(rng, n)
    y = rng.random(n)
    for i in range(n):
        br = best_response(i, y, params, net)
        for _, opinion in br.entries:
            assert 0.0 <= opinion <= 1.0



#: Every entry point that takes a player index, called for player ``i`` of the
#: n=4 game on opinions that tell the players apart.
_Y = np.array([0.1, 0.4, 0.7, 0.9])


def _best_response_pairs(i, params, net):
    br = best_response(i, _Y, params, net)
    return br.entries, br.discriminant_value


PLAYER_ENTRY_POINTS = {
    "pgg_payoff": lambda i, params, net: pgg_payoff(i, np.array([1, 0, 1, 0]), params),
    "opinion_payoff": lambda i, params, net: opinion_payoff(i, _Y, params, net),
    "total_payoff": lambda i, params, net: total_payoff(i, SystemState([1, 0, 1, 0], _Y), params, net),
    "social_term": lambda i, params, net: social_term(i, _Y, net),
    "discriminant": lambda i, params, net: discriminant(i, _Y, params, net),
    "best_response": _best_response_pairs,
}


@pytest.mark.parametrize("entry", PLAYER_ENTRY_POINTS.values(), ids=PLAYER_ENTRY_POINTS)
class TestPlayerIndex:
    @pytest.mark.parametrize("bad", [1.7, True, "2", None, np.float64(1.0)])
    def test_non_integer_is_named(self, entry, params_r2, complete4, bad):
        with pytest.raises(ValueError, match=f"player index must be an integer, got {re.escape(repr(bad))}$"):
            entry(bad, params_r2, complete4)

    @pytest.mark.parametrize("i", [np.int64(2), np.uint8(2)])
    def test_numpy_integers_are_integers(self, entry, params_r2, complete4, i):
        assert entry(i, params_r2, complete4) == entry(2, params_r2, complete4)

    def test_out_of_range_is_an_index_error(self, entry, params_r2, complete4):
        with pytest.raises(IndexError, match="player index 4 out of range for n=4"):
            entry(4, params_r2, complete4)


#: Every entry point that takes an opinion vector, and every one that takes an
#: action vector, called on that vector for the n=4 game.
OPINION_ENTRY_POINTS = {
    "opinion_payoff": lambda y, params, net: opinion_payoff(1, y, params, net),
    "social_term": lambda y, params, net: social_term(1, y, net),
    "discriminant": lambda y, params, net: discriminant(1, y, params, net),
    "best_response": lambda y, params, net: best_response(1, y, params, net),
    "potential": potential,
    "potential_quadratic": potential_quadratic,
}
ACTION_ENTRY_POINTS = {
    "pgg_payoff": lambda x, params, net: pgg_payoff(1, x, params),
    "solve_opinion_equilibrium": solve_opinion_equilibrium,
}


@pytest.mark.parametrize("entry", OPINION_ENTRY_POINTS.values(), ids=OPINION_ENTRY_POINTS)
@pytest.mark.parametrize(
    "y, message",
    [
        # NaN fails every comparison, so it would pass as a defect pull, and 5s
        # would give an opinion near 3
        ([0.1, 0.4, np.nan, 0.9], "player 3: opinion must lie in [0, 1], got nan"),
        ([0.1, 1.5, 0.7, 0.9], "player 2: opinion must lie in [0, 1], got 1.5"),
        ([-0.25, 0.4, 0.7, 0.9], "player 1: opinion must lie in [0, 1], got -0.25"),
        ([5, 5, 5, 5], "player 1: opinion must lie in [0, 1], got 5.0"),
        ([0.1, 0.4, 0.7], "opinion vector must have length 4, got shape (3,)"),
    ],
    ids=["nan", "1.5", "negative", "all-5", "short"],
)
def test_opinions_are_checked_by_the_state_rule(entry, params_r2, complete4, y, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        entry(np.array(y), params_r2, complete4)


@pytest.mark.parametrize("entry", ACTION_ENTRY_POINTS.values(), ids=ACTION_ENTRY_POINTS)
@pytest.mark.parametrize(
    "x, message",
    [
        ([0, 0.5, 1, 0], "player 2: action must be 0 or 1, got 0.5"),
        ([0, 1, 2, 0], "player 3: action must be 0 or 1, got 2.0"),
        ([0, 1, 0, np.nan], "player 4: action must be 0 or 1, got nan"),
        ([0, 1, 0], "action vector must have length 4, got shape (3,)"),
    ],
    ids=["0.5", "2", "nan", "short"],
)
def test_actions_are_checked_by_the_state_rule(entry, params_r2, complete4, x, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        entry(np.array(x), params_r2, complete4)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_discriminant_matches_conditional_payoff_gap(seed):
    # the discriminant equals the payoff difference between cooperating and
    # defecting when each action is paired with its own optimal opinion
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    params = random_interior_params(rng, n)
    net = random_row_stochastic(rng, n)
    y = rng.random(n)
    x = rng.integers(0, 2, size=n).astype(np.int64)
    for i in range(n):
        social = social_term(i, y, net)
        beta, lam = params.beta[i], params.lam[i]
        y0 = beta * social / (beta + lam)
        y1 = (beta * social + lam) / (beta + lam)
        delta = discriminant(i, y, params, net)

        x1, yy1 = x.copy(), y.copy()
        x1[i], yy1[i] = 1, y1
        x0, yy0 = x.copy(), y.copy()
        x0[i], yy0[i] = 0, y0
        gap = total_payoff(i, SystemState(x1, yy1), params, net) - total_payoff(
            i, SystemState(x0, yy0), params, net
        )
        assert delta == pytest.approx(gap, abs=1e-12)
