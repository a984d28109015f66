"""Equilibrium analysis: consensus condition checks, exact opinion solves,
Nash verification, branch-and-bound equilibrium enumeration, and parameter
sweeps.

The central facts this module operationalises, all for zero-prejudice
players:

* all-defection consensus (0, 0) is always an equilibrium;
* it is the unique equilibrium when every player's opinion-consistency
  coupling beta*lam/(beta+lam) is at most 2*alpha*(1 - r/n);
* all-cooperation consensus (1, 1) is also an equilibrium when that coupling
  strictly exceeds the same threshold for every player;
* for a frozen action profile the stationary opinions solve a linear system
  that is uniquely solvable whenever every lam is positive.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    StateClass,
    _check_tolerance,
    classify_state,
    make_schedule,
    run,
)
from .model import (
    DISCRIMINANT_TIE_TOL,
    ModelParams,
    Network,
    SystemState,
    _check_actions,
    _check_sizes,
    _revision,
    _revision_terms,
    _stationarity,
    best_response,
)

CONDITION_ALL_DEFECTION_UNIQUE = "all_defection_unique"
CONDITION_ALL_COOPERATION_EXISTS = "all_cooperation_exists"

#: Largest n that ``enumerate_equilibria`` accepts by default and that ``sweep``
#: enumerates. It bounds the output, not memory: the work follows the number of
#: equilibria, which can grow exponentially in n (a 48-node ring has 55 182).
ENUMERATION_MAX_N = 16

#: Slack past the tie band before branch and bound fixes an action; it covers the
#: rounding gap between its discriminant and that of the exact acceptance path.
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class ConditionReport:
    """Per-player evaluation of one of the two consensus conditions.

    Each per_player row is (lhs, rhs, holds) with lhs = beta*lam/(beta+lam)
    and rhs = 2*alpha*(1 - r/n). The defection-uniqueness condition holds at
    lhs <= rhs; the cooperation-existence condition needs strict lhs > rhs,
    so on the boundary lhs = rhs the first holds and the second does not.
    """

    condition_id: str
    per_player: tuple[tuple[float, float, bool], ...]
    all_hold: bool


def _require_strict_interior(params: ModelParams, what: str) -> None:
    if not params.strict_interior:
        raise ValueError(
            f"{what} is stated for players with alpha, beta, lam strictly inside "
            f"(0, 1) and zero prejudice attachment; these params fall outside that "
            f"regime (strict_interior is False)"
        )


def _condition_sides(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    terms = _revision_terms(params)
    return terms.coupling, -2.0 * terms.base


def _condition_report(condition_id: str, lhs, rhs, holds: np.ndarray) -> ConditionReport:
    return ConditionReport(
        condition_id=condition_id,
        per_player=tuple((float(a), float(b), bool(h)) for a, b, h in zip(lhs, rhs, holds)),
        all_hold=bool(holds.all()),
    )


def check_all_defection_unique(params: ModelParams) -> ConditionReport:
    """Per-player check of the condition making (0, 0) the unique equilibrium.

    Holds for player i iff beta*lam/(beta+lam) <= 2*alpha*(1 - r/n).
    """
    _require_strict_interior(params, "the defection-uniqueness condition")
    lhs, rhs = _condition_sides(params)
    return _condition_report(CONDITION_ALL_DEFECTION_UNIQUE, lhs, rhs, lhs <= rhs)


def check_all_cooperation_exists(params: ModelParams) -> ConditionReport:
    """Per-player check of the condition making (1, 1) an equilibrium too.

    Holds for player i iff beta*lam/(beta+lam) > 2*alpha*(1 - r/n), the strict
    complement of the defection-uniqueness condition.
    """
    _require_strict_interior(params, "the cooperation-existence condition")
    lhs, rhs = _condition_sides(params)
    return _condition_report(CONDITION_ALL_COOPERATION_EXISTS, lhs, rhs, lhs > rhs)


def _require_solvable(params: ModelParams) -> None:
    if (params.gamma != 0.0).any():
        bad = int(np.argmax(params.gamma != 0.0))
        raise ValueError(
            f"player {bad + 1}: stationary opinions are solved for zero prejudice "
            f"attachment only, got gamma={params.gamma[bad]}"
        )
    if (params.lam <= 0.0).any():
        bad = int(np.argmax(params.lam <= 0.0))
        raise ValueError(
            f"player {bad + 1}: lam must be positive so the opinion system contracts "
            f"(beta/(beta+lam) < 1), got lam={params.lam[bad]}"
        )


def _opinion_system(params: ModelParams, net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, psi, phi): stationary opinions solve M y = psi * x, M = I - diag(phi) W."""
    terms = _revision_terms(params)
    phi = terms.beta / terms.denom
    psi = terms.lam / terms.denom
    M = np.eye(params.n) - phi[:, None] * net.W
    return M, psi, phi


def solve_opinion_equilibrium(
    x,
    params: ModelParams,
    net: Network,
    method: str = "direct",
) -> np.ndarray:
    """Stationary opinions for a frozen action profile ``x``.

    Solves y_i = (beta_i * sum_j w_ij y_j + lam_i * x_i) / (beta_i + lam_i)
    for all i. ``method`` is "direct" (dense linear solve) or
    "fixed-point-iteration" (contraction mapping, rate max beta/(beta+lam));
    the two agree to 1e-10. The system matrix is invertible under the
    preconditions, so a singular solve is an internal fault.
    """
    _require_solvable(params)
    x = _check_actions(x, params.n)
    _check_sizes(params, net)
    M, psi, phi = _opinion_system(params, net)
    rhs = psi * x
    if method == "direct":
        try:
            y = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                "internal fault: the stationary-opinion system is singular despite "
                "contraction preconditions"
            ) from exc
    elif method == "fixed-point-iteration":
        y = np.full(params.n, 0.5)
        for _ in range(100_000):
            y_next = phi * (net.W @ y) + rhs
            if np.max(np.abs(y_next - y)) <= 1e-13:
                y = y_next
                break
            y = y_next
        else:
            raise RuntimeError(
                "internal fault: fixed-point iteration failed to contract within "
                "100000 sweeps"
            )
    else:
        raise ValueError(
            f"unknown method {method!r}; use 'direct' or 'fixed-point-iteration'"
        )
    return np.clip(y, 0.0, 1.0)


@dataclass(frozen=True)
class NashCheck:
    """Outcome of exact Nash verification.

    On failure, ``deviating_player`` is the first player (0-based) holding a
    strategy outside their best-response set and ``improving_response`` is a
    best (action, opinion) pair for them.
    """

    is_nash: bool
    deviating_player: int | None = None
    improving_response: tuple[int, float] | None = None


def verify_nash(
    state: SystemState,
    params: ModelParams,
    net: Network,
    tol: float = 1e-9,
) -> NashCheck:
    """Check that every player's (action, opinion) is a best response.

    Action membership is exact, with a discriminant tie admitting either
    action; opinions must match the action-conditional optimum within
    ``tol``.
    """
    _check_sizes(params, net, state)
    _, nash, gap = _stationarity(state.x, state.y, net.W @ state.y, params)
    deviating = np.flatnonzero(~(nash & (gap <= tol)))
    if deviating.size == 0:
        return NashCheck(True)
    i = int(deviating[0])
    # report best_response's own pair so the opinion keeps its bits: the held
    # action when it is a best response, else the first one
    br = best_response(i, state.y, params, net)
    held = int(state.x[i])
    return NashCheck(False, i, next((e for e in br.entries if e[0] == held), br.entries[0]))


@dataclass(frozen=True)
class Equilibrium:
    """One enumerated equilibrium with its classification and solve residual."""

    state: SystemState
    state_class: StateClass
    residual: float


@dataclass(frozen=True)
class EquilibriumReport:
    """Complete equilibrium set over all 2^n action profiles.

    ``equilibria`` holds the states stationary under the dynamics (whose tie
    rule maps a zero discriminant to defect). ``boundary_equilibria`` holds
    states that are Nash equilibria only by the tie rule admitting
    cooperation at a zero discriminant; the dynamics would move off them.
    ``action_profiles_scanned`` counts the profiles covered (2^n), most of
    them pruned in bulk rather than solved. ``solver_residuals`` is the max
    stationarity residual among accepted equilibria (0.0 when none).
    """

    equilibria: tuple[Equilibrium, ...]
    boundary_equilibria: tuple[Equilibrium, ...]
    action_profiles_scanned: int
    solver_residuals: float


def _candidate_profiles(params: ModelParams, net: Network, M, psi) -> np.ndarray:
    """Profiles that branch and bound cannot rule out, as a (k, n) bool array.

    With ``y = K x`` and ``K = M^-1 diag(psi) >= 0``, each discriminant is
    non-decreasing in ``x`` through the social term ``W K x``: the game has
    strategic complements (Echenique 2007). So on an interval ``[L, U]`` a player
    whose discriminant at ``L`` clears the tie band cooperates in every
    equilibrium and one whose discriminant at ``U`` falls below it defects. All
    intervals of a depth shrink by that rule as one batch until stable; empty
    ones drop and the rest split on their first free player.
    """
    WK = net.W @ np.linalg.solve(M, np.diag(psi))
    band = DISCRIMINANT_TIE_TOL + _PRUNE_MARGIN
    terms = _revision_terms(params)
    lo, hi = np.zeros((1, params.n), dtype=bool), np.ones((1, params.n), dtype=bool)
    leaves = []
    while len(lo):
        while True:
            delta = _revision(np.concatenate([lo, hi]) @ WK.T, terms)[0]
            new_lo, new_hi = lo | (delta[: len(lo)] > band), hi & (delta[len(lo) :] >= -band)
            if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
                break
            lo, hi = new_lo, new_hi
        live = ~(lo & ~hi).any(axis=1)
        lo, hi = lo[live], hi[live]
        free = hi & ~lo
        split = free.any(axis=1)
        leaves.append(lo[~split])
        lo, hi, free = lo[split], hi[split], free[split]
        first = free & (free.cumsum(axis=1) == 1)
        lo, hi = np.concatenate([lo | first, lo]), np.concatenate([hi, hi & ~first])
    return np.concatenate(leaves)


def enumerate_equilibria(
    params: ModelParams,
    net: Network,
    max_n: int = ENUMERATION_MAX_N,
) -> EquilibriumReport:
    """Enumerate all equilibria over the 2^n action profiles by branch and bound.

    For each profile ``_candidate_profiles`` keeps, the stationary opinions are
    solved exactly; the profile is accepted when every action agrees with its
    discriminant sign there (cooperation needs a strictly positive
    discriminant, ties defect). Profiles consistent only under the looser
    Nash tie rule are reported separately as boundary equilibria.
    """
    _require_solvable(params)
    if params.n > max_n:
        raise ValueError(
            f"enumeration over n={params.n} searches {2**params.n} action profiles; "
            f"raise max_n above {max_n} to allow it"
        )
    _check_sizes(params, net)
    M, psi, _ = _opinion_system(params, net)
    X = _candidate_profiles(params, net, M, psi)
    # one batched solve in code order (bit k is player k's action): with two or more
    # columns numpy takes the matrix path, whose bits match a solve of all 2^n profiles
    # at once; a lone candidate is all-defection, exactly 0 on the vector path as well
    X = X[np.lexsort(X.T)].astype(float)
    Y = np.linalg.solve(M, (psi[:, None] * X.T)).T

    stable, nash, gap = _stationarity(X, Y, Y @ net.W.T, params)
    dyn_ok = stable.all(axis=1)
    nash_ok = nash.all(axis=1)
    residual = gap.max(axis=1)

    def build(mask: np.ndarray) -> tuple[Equilibrium, ...]:
        found = []
        for k in np.flatnonzero(mask):
            state = SystemState(X[k].astype(np.int64), np.clip(Y[k], 0.0, 1.0))
            found.append(
                Equilibrium(
                    state=state,
                    state_class=classify_state(state),
                    residual=float(residual[k]),
                )
            )
        found.sort(key=lambda e: (int(e.state.x.sum()), tuple(e.state.x)))
        return tuple(found)

    equilibria = build(dyn_ok)
    boundary = build(nash_ok & ~dyn_ok)
    return EquilibriumReport(
        equilibria=equilibria,
        boundary_equilibria=boundary,
        action_profiles_scanned=1 << params.n,
        solver_residuals=float(max((e.residual for e in equilibria), default=0.0)),
    )


@dataclass(frozen=True)
class SweepCell:
    """Analysis of one parameter-grid cell.

    ``outcome_frequencies`` maps a final-state full consensus class to its
    fraction over the cell's random-initial-state trials.
    """

    r: float
    alpha: float
    beta: float
    lam: float
    all_defection_unique: bool
    all_cooperation_exists: bool
    equilibrium_count: int | None
    boundary_count: int | None
    outcome_frequencies: dict[str, float]
    trials: int


@dataclass(frozen=True)
class SweepTable:
    """Results of a parameter sweep plus the invalid cells that were skipped."""

    cells: tuple[SweepCell, ...]
    invalid_cells: tuple[tuple[dict, str], ...]
    schedule_kind: str
    seed: int
    trials_per_cell: int


def sweep(
    grid: dict,
    net: Network,
    schedule_kind: str = "round-robin",
    trials: int = 20,
    seed: int = 0,
    max_steps: int = 100_000,
    fixed_point_tol: float = 1e-10,
) -> SweepTable:
    """Run condition checks, enumeration, and random-start simulations per cell.

    ``grid`` maps axis names to value lists; axes are ``r``, ``alpha``,
    ``beta``, combined by cartesian product. Every player shares the cell's
    weights, with lam = 1 - alpha - beta and zero prejudice attachment. Cells
    that violate the model's invariants are reported in ``invalid_cells`` and
    skipped. Enumeration is skipped (count None) when n exceeds
    ``ENUMERATION_MAX_N``.
    """
    unknown = set(grid) - {"r", "alpha", "beta"}
    if unknown:
        raise ValueError(f"unknown grid axes {sorted(unknown)}; use r, alpha, beta")
    missing = {"r", "alpha", "beta"} - set(grid)
    if missing:
        raise ValueError(f"grid is missing axes {sorted(missing)}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_tolerance(fixed_point_tol)
    n = net.n
    # the schedule refuses an unknown kind or n < 2 before any cell runs
    if make_schedule(schedule_kind, n).T is None:
        warnings.warn(
            f"the {schedule_kind} schedule does not guarantee that every player revises "
            "within a fixed window; convergence conclusions do not apply to it",
            stacklevel=2,
        )
    rs = [float(v) for v in grid["r"]]
    alphas = [float(v) for v in grid["alpha"]]
    betas = [float(v) for v in grid["beta"]]

    cell_specs = list(itertools.product(rs, alphas, betas))
    master = np.random.SeedSequence(seed)
    cell_seqs = master.spawn(len(cell_specs))

    cells: list[SweepCell] = []
    invalid: list[tuple[dict, str]] = []
    for (r, a, b), seq in zip(cell_specs, cell_seqs):
        spec_dict = {"r": r, "alpha": a, "beta": b}
        lam = 1.0 - a - b
        try:
            params = ModelParams.uniform(n, r, a, b, lam)
        except ValueError as exc:
            invalid.append((spec_dict, str(exc)))
            continue
        if not params.strict_interior:
            invalid.append(
                (spec_dict, "weights must lie strictly inside (0, 1) for analysis")
            )
            continue
        cond_defect = check_all_defection_unique(params)
        cond_coop = check_all_cooperation_exists(params)
        if n <= ENUMERATION_MAX_N:
            report = enumerate_equilibria(params, net)
            eq_count: int | None = len(report.equilibria)
            boundary_count: int | None = len(report.boundary_equilibria)
        else:
            eq_count = None
            boundary_count = None

        counts: dict[str, int] = {}
        trial_seqs = seq.spawn(trials)
        for trial_seq in trial_seqs:
            rng = np.random.default_rng(trial_seq)
            initial = SystemState(
                rng.integers(0, 2, size=n).astype(np.int64), rng.random(n)
            )
            schedule = make_schedule(
                schedule_kind, n, seed=int(rng.integers(2**63 - 1))
            )
            traj = run(
                initial,
                schedule,
                params,
                net,
                max_steps=max_steps,
                fixed_point_tol=fixed_point_tol,
                record=False,
            )
            label = classify_state(traj.final).full_class
            counts[label] = counts.get(label, 0) + 1
        freqs = {label: count / trials for label, count in sorted(counts.items())}
        cells.append(
            SweepCell(
                r=r,
                alpha=a,
                beta=b,
                lam=lam,
                all_defection_unique=cond_defect.all_hold,
                all_cooperation_exists=cond_coop.all_hold,
                equilibrium_count=eq_count,
                boundary_count=boundary_count,
                outcome_frequencies=freqs,
                trials=trials,
            )
        )
    return SweepTable(
        cells=tuple(cells),
        invalid_cells=tuple(invalid),
        schedule_kind=schedule_kind,
        seed=seed,
        trials_per_cell=trials,
    )
