"""Random instance generators shared by the oracle, property, and acceptance tests.

Regime constructors place instances on a chosen side of the consensus
conditions by drawing the weights first and then sampling the multiplier r
inside the interval that side allows, with margin so float dust cannot flip
a condition.
"""

from __future__ import annotations

import numpy as np

from coevo.model import DISCRIMINANT_TIE_TOL, ModelParams, Network, SystemState
from coevo.networks import random_symmetric_network


def random_row_stochastic(rng: np.random.Generator, n: int) -> Network:
    """Dense random row-stochastic matrix with zero diagonal.

    Payoff-optimality oracles need self-loop-free networks: with w_ii > 0 the
    update formula stops being the one-shot payoff argmax (the self term of
    the disagreement cost is identically zero), though fixed points agree.
    """
    W = rng.uniform(0.05, 1.0, (n, n))
    np.fill_diagonal(W, 0.0)
    return Network.from_matrix(W, normalise=True)


def random_interior_params(
    rng: np.random.Generator,
    n: int,
    r: float | None = None,
) -> ModelParams:
    """Strict-interior weights (alpha, beta, lam in (0,1), gamma = 0), random r."""
    alpha = rng.uniform(0.1, 0.8, n)
    split = rng.uniform(0.1, 0.9, n)
    beta = (1.0 - alpha) * split
    lam = (1.0 - alpha) * (1.0 - split)
    if r is None:
        r = float(rng.uniform(1.0 + 1e-6, n))
    return ModelParams(
        n=n,
        r=r,
        alpha=alpha,
        beta=beta,
        lam=lam,
        gamma=np.zeros(n),
        prejudice=np.full(n, 0.5),
    )


def random_state(rng: np.random.Generator, n: int) -> SystemState:
    return SystemState(rng.integers(0, 2, size=n).astype(np.int64), rng.random(n))


def _shared_weights(rng: np.random.Generator):
    alpha, split = rng.uniform(0.3, 0.6), rng.uniform(0.35, 0.65)
    beta, lam = (1 - alpha) * split, (1 - alpha) * (1 - split)
    return alpha, beta, lam, beta * lam / (beta + lam)


def tied_params(rng: np.random.Generator, n: int) -> ModelParams:
    """One shared set of weights, with r on the condition boundary where
    all-cooperation consensus has a zero discriminant, so it is a Nash
    equilibrium only by the tie rule."""
    alpha, beta, lam, coupling = _shared_weights(rng)
    return ModelParams.uniform(n, n * (1 - coupling / (2 * alpha)), alpha, beta, lam)


def edge_params(rng: np.random.Generator, n: int) -> list[ModelParams]:
    """One shared set of weights, with r where all-cooperation consensus has
    discriminant -DISCRIMINANT_TIE_TOL, and its four float neighbours on each
    side, where rounding decides which side of the tie band the player lands."""
    alpha, beta, lam, coupling = _shared_weights(rng)
    r = n * (1 + (-DISCRIMINANT_TIE_TOL - coupling / 2) / alpha)
    return [ModelParams.uniform(n, r + k * np.spacing(r), alpha, beta, lam) for k in range(-4, 5)]


def _regime_weights(rng: np.random.Generator, n: int):
    alpha = rng.uniform(0.3, 0.6, n)
    split = rng.uniform(0.35, 0.65, n)
    beta = (1.0 - alpha) * split
    lam = (1.0 - alpha) * (1.0 - split)
    coupling = beta * lam / (beta + lam)
    # r threshold per player: condition boundary at r = n(1 - coupling/(2 alpha))
    thresholds = n * (1.0 - coupling / (2.0 * alpha))
    return alpha, beta, lam, thresholds


def defection_regime_params(rng: np.random.Generator, n: int) -> ModelParams:
    """Instance where the defection-uniqueness condition holds for every player."""
    alpha, beta, lam, thresholds = _regime_weights(rng, n)
    r_hi = float(thresholds.min())
    r = 1.0 + (r_hi - 1.0) * float(rng.uniform(0.05, 0.95))
    return ModelParams(
        n=n, r=r, alpha=alpha, beta=beta, lam=lam,
        gamma=np.zeros(n), prejudice=np.full(n, 0.5),
    )


def cooperation_regime_params(rng: np.random.Generator, n: int) -> ModelParams:
    """Instance where the cooperation-existence condition holds for every player."""
    alpha, beta, lam, thresholds = _regime_weights(rng, n)
    r_lo = max(1.0, float(thresholds.max()))
    r = r_lo + (n - r_lo) * float(rng.uniform(0.2, 0.8))
    return ModelParams(
        n=n, r=r, alpha=alpha, beta=beta, lam=lam,
        gamma=np.zeros(n), prejudice=np.full(n, 0.5),
    )


def convergence_instance(rng: np.random.Generator, n: int):
    """(params, net) for convergence runs: defection regime, contraction
    factor max beta/(beta+lam) <= 0.65, symmetric irreducible network."""
    params = defection_regime_params(rng, n)
    net = random_symmetric_network(n, edge_probability=0.6, seed=int(rng.integers(2**31)))
    return params, net
