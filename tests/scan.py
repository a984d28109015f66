"""Reference equilibrium enumeration: solve every one of the 2^n action profiles.

This is the dense scan ``enumerate_equilibria`` ran before it pruned profiles
by branch and bound. It holds several 2^n x n arrays at once, so it is kept
for small n as the oracle the fast path must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from coevo.dynamics import _state_classes
from coevo.equilibria import Equilibrium, EquilibriumReport, _opinion_system
from coevo.model import ModelParams, Network, SystemState, _stationarity


def scan_equilibria(params: ModelParams, net: Network) -> EquilibriumReport:
    """Every equilibrium, found by solving all 2^n action profiles in one batch."""
    n = params.n
    codes = np.arange(1 << n, dtype=np.uint32)
    # bit k of the code is player k's action
    X = ((codes[:, None] >> np.arange(n, dtype=np.uint32)) & 1).astype(float)
    M, psi, _ = _opinion_system(params, net)
    Y = np.linalg.solve(M, (psi[:, None] * X.T)).T
    stable, nash, gap = _stationarity(X, Y, Y @ net.W.T, params)
    dyn_ok = stable.all(axis=1)
    nash_ok = nash.all(axis=1)
    residual = gap.max(axis=1)

    def build(mask: np.ndarray) -> tuple[Equilibrium, ...]:
        rows = np.flatnonzero(mask)
        x, y = X[rows].astype(np.int64), np.clip(Y[rows], 0.0, 1.0)
        found = [Equilibrium(SystemState(a, b), label, float(residual[k]))
                 for k, a, b, label in zip(rows, x, y, _state_classes(x, y))]
        found.sort(key=lambda e: (int(e.state.x.sum()), tuple(e.state.x)))
        return tuple(found)

    equilibria = build(dyn_ok)
    return EquilibriumReport(
        equilibria=equilibria,
        boundary_equilibria=build(nash_ok & ~dyn_ok),
        action_profiles_scanned=1 << n,
        solver_residuals=float(max((e.residual for e in equilibria), default=0.0)),
    )
