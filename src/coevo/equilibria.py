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
* both conditions are the sign of one number, the discriminant at (1, 1),
  decided like every tie here: within ``DISCRIMINANT_TIE_TOL`` of zero counts
  as zero, and a zero discriminant defects;
* for a frozen action profile the stationary opinions solve a linear system
  that is uniquely solvable whenever every lam is positive.
"""

from __future__ import annotations

import itertools
import sys
import warnings
from collections import Counter
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .dynamics import StateClass, _full_class, _run_trials, _state_classes
from .model import (
    DISCRIMINANT_TIE_TOL,
    ModelParams,
    Network,
    RevisionTerms,
    SystemState,
    _check_limits,
    _check_sizes,
    _check_state,
    _check_vector,
    _frozen_array,
    _interior_fault,
    _is_int,
    _regime_fault,
    _revision,
    _revision_terms,
    _stationarity,
    _trusted,
    best_response,
    make_schedule,
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
    and rhs = 2*alpha*(1 - r/n). ``holds`` is the sign of (lhs - rhs)/2, the
    discriminant at (1, 1), under the tie band: on the boundary defection
    uniqueness holds and cooperation existence does not.
    """

    condition_id: str
    per_player: tuple[tuple[float, float, bool], ...]
    all_hold: bool


def _condition_reports(params: ModelParams) -> tuple[ConditionReport, ConditionReport]:
    """Both conditions, defection then cooperation, from one ``_stationarity`` pass at
    (1, 1) with the social term exactly 1.0 as the condition has no W: cooperation exists
    where that profile is stable, and defection is unique where it is not, so ties defect."""
    fault = _interior_fault(params)
    if fault is not None:
        raise ValueError(fault)
    terms, ones = _revision_terms(params), np.ones(params.n)
    stable = _stationarity(ones, ones, ones, params)[0]
    sides = list(zip(terms.coupling.tolist(), (-2.0 * terms.base).tolist()))

    def report(condition_id, holds):
        rows = tuple((*side, h) for side, h in zip(sides, holds.tolist()))
        return ConditionReport(condition_id, rows, bool(holds.all()))

    return report(CONDITION_ALL_DEFECTION_UNIQUE, ~stable), report(CONDITION_ALL_COOPERATION_EXISTS, stable)


def check_all_defection_unique(params: ModelParams) -> ConditionReport:
    """Per-player check of the condition making (0, 0) the unique equilibrium.

    Holds for player i iff beta*lam/(beta+lam) <= 2*alpha*(1 - r/n), sides equal
    within the tie band counting as equal.
    """
    return _condition_reports(params)[0]


def check_all_cooperation_exists(params: ModelParams) -> ConditionReport:
    """Per-player check of the condition making (1, 1) an equilibrium too.

    Holds for player i iff beta*lam/(beta+lam) > 2*alpha*(1 - r/n) beyond the tie
    band, the exact complement of the defection-uniqueness condition.
    """
    return _condition_reports(params)[1]


def _require_solvable(params: ModelParams) -> None:
    fault = _regime_fault(params, (
        ("gamma", params.gamma != 0.0, "stationary opinions are solved for zero prejudice attachment only"),
        ("lam", params.lam <= 0.0, "lam must be positive so the opinion system contracts (beta/(beta+lam) < 1)"),
    ))
    if fault is not None:
        raise ValueError(fault)


def _opinion_system(params: ModelParams, net: Network) -> tuple[np.ndarray, np.ndarray]:
    """(M, psi): stationary opinions solve M y = psi * x, M = I - diag(beta/(beta+lam)) W."""
    terms = _revision_terms(params)
    M = np.eye(params.n) - (terms.beta / terms.denom)[:, None] * net.W
    return M, terms.lam / terms.denom


def solve_opinion_equilibrium(x, params: ModelParams, net: Network) -> np.ndarray:
    """Stationary opinions for a frozen action profile ``x``.

    Solves y_i = (beta_i * sum_j w_ij y_j + lam_i * x_i) / (beta_i + lam_i)
    for all i with one dense linear solve. The system matrix is invertible
    under the preconditions, so a singular solve is an internal fault.
    """
    _require_solvable(params)
    x = _check_vector(x, params.n, actions=True)
    _check_sizes(params, net)
    M, psi = _opinion_system(params, net)
    try:
        y = np.linalg.solve(M, psi * x)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            "internal fault: the stationary-opinion system is singular despite "
            "contraction preconditions"
        ) from exc
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


def _shrink(lo, hi, owner, WK, terms):
    """One branch-and-bound step on intervals ``[lo, hi]``, ``(k, n)`` bool arrays, each of
    problem ``owner[i]`` with social map ``WK[owner[i]]`` and terms ``owner[i]``: a player
    whose discriminant at ``lo`` clears the tie band by ``_PRUNE_MARGIN`` joins ``lo``, and
    one whose discriminant at ``hi`` falls that far below it leaves ``hi``."""
    band = DISCRIMINANT_TIE_TOL + _PRUNE_MARGIN
    if len(WK) == 1:  # one map for every interval: one product, nothing gathered
        social = (np.concatenate([lo, hi]) @ WK[0].T).reshape(2, *lo.shape)
    else:
        social = np.matmul(WK[owner], np.stack([lo, hi], axis=2)).transpose(2, 0, 1)
        terms = terms._replace(base=terms.base[owner], coupling=terms.coupling[owner])
    delta = _revision(social, terms)[0]
    return lo | (delta[0] > band), hi & (delta[1] >= -band)


def _candidate_profiles(net: Network, problems) -> list[np.ndarray]:
    """Profiles that branch and bound cannot rule out, a ``(k, n)`` bool array for each
    ``ModelParams`` of ``problems`` on ``net``.

    With ``y = K x`` and ``K = M^-1 diag(psi) >= 0``, each discriminant is
    non-decreasing in ``x`` through the social term ``W K x``: the game has
    strategic complements (Echenique 2007). So on an interval ``[L, U]`` a player
    whose discriminant at ``L`` clears the tie band cooperates in every
    equilibrium and one whose discriminant at ``U`` falls below it defects. Each
    pass takes one ``_shrink`` of every live interval of every problem, with no
    barrier between depths: one that turned empty is dropped, and one that did not
    move is kept as a leaf if it has no free player and otherwise split on its first.
    """
    M, psi = map(np.stack, zip(*(_opinion_system(p, net) for p in problems)))
    WK = net.W @ np.linalg.solve(M, psi[:, :, None] * np.eye(net.n))
    P, terms = len(problems), _stacked_terms(problems)
    lo, hi, owner, leaves = np.zeros((P, net.n), dtype=bool), np.ones((P, net.n), dtype=bool), np.arange(P), []
    while len(lo):
        new_lo, new_hi = _shrink(lo, hi, owner, WK, terms)
        settled = ~((new_lo != lo) | (new_hi != hi)).any(axis=1)
        lo, hi, free = new_lo, new_hi, new_hi & ~new_lo
        live = ~(lo & ~hi).any(axis=1)  # an empty interval stays empty, so it goes at once
        split = free.any(axis=1)
        go, leaf, branch = live & ~settled, live & settled & ~split, live & settled & split
        leaves.append((owner[leaf], lo[leaf]))
        first = free[branch] & (free[branch].cumsum(axis=1) == 1)
        lo = np.concatenate([lo[go], lo[branch] | first, lo[branch]])
        hi = np.concatenate([hi[go], hi[branch], hi[branch] & ~first])
        owner = np.concatenate([owner[go], owner[branch], owner[branch]])
    owners, leaves = map(np.concatenate, zip(*leaves))
    return np.split(leaves[np.argsort(owners)], np.cumsum(np.bincount(owners, minlength=P))[:-1])


def _stacked_terms(problems) -> RevisionTerms:
    """The ``RevisionTerms`` of zero-prejudice ``problems``, each field ``(len(problems), n)``."""
    return RevisionTerms(*map(np.stack, zip(*(_revision_terms(p)[:5] for p in problems))), None)


def _solve_profiles(X, net: Network, params: ModelParams):
    """The profiles ``X`` as floats in code order (bit k is player k's action), their
    stationary opinions from one batched solve, and per profile whether the dynamics
    keep it, whether it is Nash and its residual. With two or more columns numpy takes
    the matrix path, whose bits match a solve of all 2^n profiles at once; a lone
    candidate is all-defection, exactly 0 on the vector path as well."""
    M, psi = _opinion_system(params, net)
    X = X[np.lexsort(X.T)].astype(float)
    Y = np.linalg.solve(M, (psi[:, None] * X.T)).T
    stable, nash, gap = _stationarity(X, Y, Y @ net.W.T, params)
    return X, Y, stable.all(axis=1), nash.all(axis=1), gap.max(axis=1)


def enumerate_equilibria(params: ModelParams, net: Network, max_n: int = ENUMERATION_MAX_N) -> EquilibriumReport:
    """Enumerate all equilibria over the 2^n action profiles by branch and bound.

    ``_candidate_profiles`` runs on this one problem, with no barrier between depths.
    For each profile it keeps, the stationary opinions are solved exactly; the
    profile is accepted when every action agrees with its discriminant sign there
    (cooperation needs a strictly positive discriminant, ties defect), and the
    accepted states are checked once, as one array. Profiles consistent only under
    the looser Nash tie rule are reported separately as boundary equilibria.
    """
    _require_solvable(params)
    if params.n > max_n:
        raise ValueError(
            f"enumeration over n={params.n} searches {2**params.n} action profiles; "
            f"raise max_n above {max_n} to allow it"
        )
    _check_sizes(params, net)
    (X,) = _candidate_profiles(net, [params])
    X, Y, dyn_ok, nash_ok, residual = _solve_profiles(X, net, params)
    X, Y = _frozen_array(X, np.int64), _frozen_array(Y.clip(0.0, 1.0))
    _check_state(X[nash_ok], Y[nash_ok])  # every accepted profile: nash_ok holds where dyn_ok does

    def build(mask: np.ndarray) -> tuple[Equilibrium, ...]:
        rows = np.flatnonzero(mask)
        # by cooperator count, then by profile with player 0 first
        rows = rows[np.lexsort((*X[rows, ::-1].T, X[rows].sum(axis=1)))]
        return tuple(Equilibrium(_trusted(SystemState, x=X[k], y=Y[k]), label, gap) for k, label, gap in
                     zip(rows, _state_classes(X[rows], Y[rows]), residual[rows].tolist()))

    equilibria = build(dyn_ok)
    return EquilibriumReport(equilibria=equilibria, boundary_equilibria=build(nash_ok & ~dyn_ok),
                             action_profiles_scanned=1 << params.n,
                             solver_residuals=float(max((e.residual for e in equilibria), default=0.0)))


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


def sweep(grid: dict, net: Network, schedule_kind: str = "round-robin", trials: int = 20, seed: int = 0,
          max_steps: int = 100_000, fixed_point_tol: float = 1e-10) -> SweepTable:
    """Run condition checks, enumeration, and random-start simulations per cell.

    ``grid`` maps axis names to value lists; axes are ``r``, ``alpha``,
    ``beta``, combined by cartesian product. Every player shares the cell's
    weights, with lam = 1 - alpha - beta and zero prejudice attachment. Cells
    that violate the model's invariants or lie outside the conditions' strict
    interior are skipped and reported in ``invalid_cells`` with the refusal's
    message. Enumeration is skipped (count None) when n exceeds
    ``ENUMERATION_MAX_N``; otherwise every valid cell is one problem of a single
    ``_candidate_profiles`` pass, with no barrier between depths or cells, and a
    cell's counts come from the masks of its own exact solve. Each trial draws
    its start and schedule seed from its cell's stream; the trials of every cell
    then run as one lockstep batch of unrecorded runs (``dynamics._run_trials``),
    which ends each one with the bits of a run of its own.
    """
    unknown = set(grid) - {"r", "alpha", "beta"}
    if unknown:
        raise ValueError(f"unknown grid axes {sorted(unknown)}; use r, alpha, beta")
    missing = {"r", "alpha", "beta"} - set(grid)
    if missing:
        raise ValueError(f"grid is missing axes {sorted(missing)}")
    if not (_is_int(trials) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if trials > sys.maxsize:  # the most trials that SeedSequence.spawn can count
        raise ValueError(f"trials must be at most {sys.maxsize}, got {trials}")
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    trials, seed = int(trials), int(seed)
    for axis in ("r", "alpha", "beta"):
        for v in grid[axis]:
            if isinstance(v, bool) or not isinstance(v, Real):
                raise ValueError(f"grid axis {axis}: values must be real numbers, got {v!r}")
    _check_limits(max_steps, fixed_point_tol)
    n = net.n
    # the schedule refuses an unknown kind or n < 2 before any cell runs
    if make_schedule(schedule_kind, n).T is None:
        warnings.warn(
            f"the {schedule_kind} schedule does not guarantee that every player revises "
            "within a fixed window; convergence conclusions do not apply to it",
            stacklevel=2,
        )
    cell_specs = list(itertools.product(*([float(v) for v in grid[axis]] for axis in ("r", "alpha", "beta"))))
    cell_seqs = np.random.SeedSequence(seed).spawn(len(cell_specs))

    cells: list[dict] = []  # each valid cell's fields, its outcomes to come
    invalid: list[tuple[dict, str]] = []
    X, Y, schedules, valid = [], [], [], []  # valid: each valid cell's params
    for (r, a, b), seq in zip(cell_specs, cell_seqs):
        lam = 1.0 - a - b
        try:
            params = ModelParams.uniform(n, r, a, b, lam)
            cond_defect, cond_coop = _condition_reports(params)
        except ValueError as exc:
            invalid.append(({"r": r, "alpha": a, "beta": b}, str(exc)))
            continue
        for trial_seq in seq.spawn(trials):
            rng = np.random.default_rng(trial_seq)
            X.append(rng.integers(0, 2, size=n))
            Y.append(rng.random(n))
            schedules.append(make_schedule(schedule_kind, n, seed=int(rng.integers(2**63 - 1))))
        valid.append(params)
        cells.append(dict(r=r, alpha=a, beta=b, lam=lam, all_defection_unique=cond_defect.all_hold,
                          all_cooperation_exists=cond_coop.all_hold, equilibrium_count=None,
                          boundary_count=None, trials=trials))
    candidates = _candidate_profiles(net, valid) if cells and n <= ENUMERATION_MAX_N else ()
    for cell, X_c, params in zip(cells, candidates, valid):  # counts from the cell's own exact solve
        _, _, dyn_ok, nash_ok, _ = _solve_profiles(X_c, net, params)
        cell.update(equilibrium_count=int(dyn_ok.sum()), boundary_count=int((nash_ok & ~dyn_ok).sum()))
    if cells:
        # every trial of every cell in one batch, each with its cell's terms
        terms = RevisionTerms(*(np.repeat(f, trials, axis=0) for f in _stacked_terms(valid)[:5]), None)
        end: list = []
        list(_run_trials(np.array(X), np.array(Y), schedules, terms, net.W, max_steps, fixed_point_tol, end))
        labels = _full_class(*end[:2]).tolist()
        for c, cell in enumerate(cells):
            counts = Counter(labels[c * trials : (c + 1) * trials])
            cell["outcome_frequencies"] = {label: count / trials for label, count in sorted(counts.items())}
    return SweepTable(cells=tuple(SweepCell(**cell) for cell in cells), invalid_cells=tuple(invalid),
                      schedule_kind=schedule_kind, seed=seed, trials_per_cell=trials)
