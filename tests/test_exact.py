"""The float kernel, stationary-opinion solve, enumeration and condition checks
against the exact rational oracle in ``exact.py``.

Games are drawn in small rationals at n <= 5: influence rows of small
integers, weights in twelfths and r in tenths, or r on player 1's condition
boundary so that an exact tie occurs. Each float decision must equal the
exact one wherever the exact discriminant is decidable, and defect at an
exact zero.
"""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coevo.dynamics import step
from coevo.equilibria import (
    check_all_cooperation_exists,
    check_all_defection_unique,
    enumerate_equilibria,
    solve_opinion_equilibrium,
)
from coevo.model import SystemState, best_response
from exact import DECIDABLE, Exact


@st.composite
def exact_games(draw, attached: bool = False) -> Exact:
    """A rational game; ``attached`` lets players hold a prejudice, which the
    stationary solve, the enumeration and the conditions exclude."""
    n = draw(st.integers(2, 5))
    W = []
    for _ in range(n):
        ints = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any))
        W.append(tuple(Fraction(k, sum(ints)) for k in ints))
    alpha, beta, lam = [], [], []
    for _ in range(n):
        a = draw(st.integers(1, 10))
        b = draw(st.integers(1, 11 - a))
        alpha.append(Fraction(a, 12))
        beta.append(Fraction(b, 12))
        lam.append(Fraction(12 - a - b, 12))
    # player 1's consensus discriminant is exactly zero at this r
    tie = n * (1 - beta[0] * lam[0] / (beta[0] + lam[0]) / (2 * alpha[0]))
    if 1 < tie < n and draw(st.booleans()):
        r = tie
    else:
        r = Fraction(draw(st.integers(11, 10 * n - 1)), 10)
    twelfths = st.integers(0, 12).map(lambda k: Fraction(k, 12))
    gamma = tuple(draw(twelfths) if attached else Fraction(0) for _ in range(n))
    prejudice = tuple(draw(twelfths) for _ in range(n))
    return Exact(r, tuple(W), tuple(alpha), tuple(beta), tuple(lam), gamma, prejudice)


def _decidable(delta: Fraction) -> bool:
    return delta == 0 or abs(delta) > DECIDABLE


def _floats(values) -> np.ndarray:
    return np.array([float(v) for v in values])


@settings(max_examples=150, deadline=None)
@given(exact_games(attached=True), st.data())
def test_best_response_and_step_match_exact(game, data):
    n = game.n
    params, net = game.floats()
    # all-ones opinions put the tied player on an exact zero
    y = data.draw(st.one_of(
        st.just((Fraction(1),) * n),
        st.tuples(*[st.integers(0, 12).map(lambda k: Fraction(k, 12))] * n),
    ))
    x = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    after = step(SystemState(np.array(x), _floats(y)), range(n), params, net)
    for i in range(n):
        delta = game.discriminant(i, y)
        if not _decidable(delta):
            continue
        action = int(delta > 0)
        br = best_response(i, _floats(y), params, net)
        # an exact zero is a tie: both actions, defect first
        assert br.actions == ((0, 1) if delta == 0 else (action,))
        for s, opinion in br.entries:
            assert abs(opinion - float(game.opinion(i, s, y))) <= 1e-12
        assert after.x[i] == action
        assert abs(after.y[i] - float(game.opinion(i, action, y))) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(exact_games())
def test_enumeration_matches_exact(game):
    strict, boundary, decidable = game.equilibria()
    assume(decidable)
    report = enumerate_equilibria(*game.floats())
    for found, want in ((report.equilibria, strict), (report.boundary_equilibria, boundary)):
        assert {tuple(int(a) for a in eq.state.x) for eq in found} == want
        for eq in found:
            y = _floats(game.stationary(eq.state.x))
            assert np.abs(eq.state.y - y).max() <= 1e-9


@settings(max_examples=100, deadline=None)
@given(exact_games())
def test_stationary_opinions_match_exact(game):
    # every profile, not only the equilibria that enumeration finds
    params, net = game.floats()
    for x in itertools.product((0, 1), repeat=game.n):
        y = solve_opinion_equilibrium(np.array(x), params, net)
        assert np.abs(y - _floats(game.stationary(x))).max() <= 1e-12


@settings(max_examples=150, deadline=None)
@given(exact_games())
def test_conditions_match_exact(game):
    params, _ = game.floats()
    defect = check_all_defection_unique(params)
    coop = check_all_cooperation_exists(params)
    for i in range(game.n):
        delta = game.consensus_discriminant(i)
        assert _decidable(delta)
        # the paper's boundary answer at delta == 0: defection unique, no cooperation
        assert defect.per_player[i][2] == (delta <= 0)
        assert coop.per_player[i][2] == (delta > 0)
        lhs = game.beta[i] * game.lam[i] / (game.beta[i] + game.lam[i])
        rhs = 2 * game.alpha[i] * (1 - game.r / game.n)
        assert defect.per_player[i][:2] == coop.per_player[i][:2]
        assert abs(defect.per_player[i][0] - float(lhs)) <= 1e-15
        assert abs(defect.per_player[i][1] - float(rhs)) <= 1e-15
