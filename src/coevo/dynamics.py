"""Discrete-time best-response dynamics over the joint action-opinion state.

At each step an active set of players simultaneously replaces their action
with the sign of the discriminant (ties break to defect) and their opinion
with the action-conditional optimum; inactive players keep their state
bit-identically. Revision schedules (``coevo.model``) decide who is active
when; the compliant kinds guarantee every player activates within a fixed
window, which is what the convergence analysis assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

# SCHEDULE_KINDS and make_schedule are not used here: they stay importable from coevo.dynamics
from .model import (
    DISCRIMINANT_TIE_TOL,
    SCHEDULE_KINDS,
    ModelParams,
    Network,
    RevisionSchedule,
    RevisionTerms,
    SystemState,
    _check_limits,
    _check_sizes,
    _check_state,
    _check_vector,
    _is_int,
    _opinion,
    _regime_fault,
    _revision,
    _revision_terms,
    _stationarity,
    _trusted,
    make_schedule,
)

#: Raw opinion updates further than this outside [0, 1] indicate an internal
#: fault (legitimate row-sum dust is bounded by the 1e-9 network tolerance).
_DIVERGENCE_BAND = 1e-6


def _revise(y: np.ndarray, rows: np.ndarray, terms: RevisionTerms) -> tuple[np.ndarray, np.ndarray]:
    """Best responses to opinions ``y`` of the players whose influence rows are ``rows``.

    ``terms`` are those players' ``RevisionTerms``. All of them read the same
    pre-step opinions. Returns their new actions (int8) and raw opinions,
    before any clipping, in the order of ``rows``. Given one player's terms
    as Python floats (``RevisionTerms.item``), the same formulas run in float
    arithmetic on the one matvec entry and return an int action and a float.
    """
    social = rows @ y
    if isinstance(terms.base, float):
        delta, pulled = _revision(social.item(), terms)
        s = int(delta > DISCRIMINANT_TIE_TOL)
    else:
        delta, pulled = _revision(social, terms)
        s = (delta > DISCRIMINANT_TIE_TOL).astype(np.int8)
    return s, _opinion(s, pulled, terms)


def step(
    state: SystemState,
    active,
    params: ModelParams,
    net: Network,
) -> SystemState:
    """One simultaneous revision of the players in ``active`` (0-based indices).

    Each active player adopts the discriminant-sign action (ties to defect)
    and the matching optimal opinion computed from the pre-step opinions.
    Opinions are clipped to [0, 1]; with an exactly row-stochastic network
    the clip never engages (updates are convex combinations), it only absorbs
    dust from networks whose rows sum to 1 within the 1e-9 tolerance.
    """
    _check_sizes(params, net, state)
    active = list(active)
    for i in active:
        if not _is_int(i):
            raise ValueError(f"active ids must be integers, got {i!r}")
    # checked on the ids themselves, before an id too large for int64 is cast
    if not all(0 <= i < params.n for i in active):
        ids = sorted({int(i) for i in active})
        raise IndexError(f"active set {ids} out of range for n={params.n} (0-based)")
    active = np.unique(np.asarray(active, dtype=np.int64))
    if active.size == 0:
        return state
    s, y_raw = _revise(state.y, net.W[active], _revision_terms(params, active))
    x_new = np.array(state.x)
    y_new = np.array(state.y)
    x_new[active] = s
    y_new[active] = np.clip(y_raw, 0.0, 1.0)
    return SystemState(x_new, y_new)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A recorded run, one row per recorded state; row 0 is the initial state.

    ``x`` (int8) and ``y`` (float64) are ``(rows, n)`` arrays of actions and
    opinions. ``active_sets[t]`` is the set whose revision produced row
    ``t+1``, so it has one fewer entry than there are rows. ``potentials``
    aligns with the rows and is None unless every player has zero prejudice
    attachment and positive opinion weight (the regime where the potential is
    defined) and every step was recorded. ``stop_detail`` names the diverging
    player and value when ``stop_reason`` is ``divergence_guard`` and is empty
    otherwise.
    """

    x: np.ndarray
    y: np.ndarray
    active_sets: tuple[tuple[int, ...], ...]
    potentials: np.ndarray | None
    stop_reason: str
    stop_detail: str = ""

    def __post_init__(self):
        x = np.asarray(self.x)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or x.shape != y.shape:
            raise ValueError(
                f"actions and opinions must be (rows, n) arrays of one shape, "
                f"got {x.shape} and {y.shape}"
            )
        # checked before the cast, which would truncate 0.7 to 0 and wrap 300 to 44
        _check_state(x, y)
        object.__setattr__(self, "x", np.asarray(x, dtype=np.int8))
        object.__setattr__(self, "y", y)
        expected = max(len(x) - 1, 0)
        if len(self.active_sets) != expected:
            raise ValueError(
                f"{len(x)} states need {expected} active sets, got {len(self.active_sets)}"
            )
        # each set object once, as a run repeats its schedule's few set objects;
        # by identity, not equality, since (1.0,) == (1,)
        n, checked = x.shape[1], set()
        for row, ids in enumerate(self.active_sets, start=1):
            if id(ids) not in checked:
                checked.add(id(ids))
                if not all(_is_int(i) and 0 <= i < n for i in ids):
                    raise ValueError(f"row {row}: active ids must be integers in 0..{n - 1}, got {list(ids)}")
        if self.potentials is not None:
            potentials = np.asarray(self.potentials, dtype=float)
            if potentials.shape != (len(x),):
                raise ValueError("potentials must align with states")
            object.__setattr__(self, "potentials", potentials)
        # "unknown" marks trajectories parsed back from files, which do not
        # carry the stop reason
        if self.stop_reason not in ("fixed_point", "max_steps", "divergence_guard", "unknown"):
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")

    @property
    def states(self) -> tuple[SystemState, ...]:
        """Every recorded row as a validated state, built on each access."""
        return tuple(SystemState(x, y) for x, y in zip(self.x, self.y))

    @property
    def final(self) -> SystemState:
        if not len(self):
            raise ValueError("empty trajectory has no final state")
        return SystemState(self.x[-1], self.y[-1])

    def __len__(self) -> int:
        return self.x.shape[0]


def _block_rows(n: int) -> int:
    """Rows per block: about 2**16 cells, at most 1024 rows (each row's text outweighs a few cells)."""
    return max(1, 65536 // max(n, 64))


def _social_stacked(rows: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``rows @ y`` of each row ``y`` of ``Y`` in one stacked matmul, where ``rows``
    are the influence rows of one set that every trial revises, or ``(trials, 1, n)``:
    one player's row per trial."""
    return np.matmul(rows, Y[:, :, None])[:, :, 0]


def _social_each(rows: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``_social_stacked`` one trial at a time, by the matvec of ``_revise``."""
    return np.stack([w @ y for w, y in zip(np.broadcast_to(rows, (len(Y), *rows.shape[-2:])), Y)])


def _run_trials(X: np.ndarray, Y: np.ndarray, schedules: list, terms: RevisionTerms, W: np.ndarray,
                max_steps: int, fixed_point_tol: float, end: list, record: ModelParams | None = None):
    """Trials in lockstep, as a generator: trial t from actions ``X[t]`` and
    opinions ``Y[t]`` along ``schedules[t]``, all of one kind, with ``terms``
    whose fields broadcast to ``(trials, n)``. Each trial stops by ``run``'s
    rules. It checks nothing; ``run``, ``sweep`` and ``load_config`` do.

    Two or more live trials take one stacked matvec per step and the elementwise
    best response. numpy does not document that this gives the bits of one
    matvec per trial, so random probe rows check it once, and on a mismatch each
    trial's social term is taken alone. A lone live trial takes ``_revise``,
    with its streak and guard in Python scalars. Both give the bits of ``step``.

    ``record``, the ``ModelParams`` of a single trial, makes it yield the rows in
    fresh blocks of at most ``_block_rows(n)``: ``(x, y, active, potentials)``,
    ``(rows, n)`` int8 actions and float64 opinions, each row's active set
    (``()`` for row 0) and the rows' potentials, or None where undefined.
    Otherwise it yields nothing. Before its last block it sets ``end`` to every
    trial's final actions and opinions, and each one's steps, stop reason and detail.
    """
    X, Y = X.astype(np.int8), np.array(Y, dtype=float)
    T, n = Y.shape
    kind, window = schedules[0].kind, schedules[0].stability_window
    # the deterministic kinds give every trial the same set at the same step
    iters = [schedules[0].sets()] if kind in ("synchronous", "round-robin") else [s.sets() for s in schedules]
    social = _social_stacked
    if T > 1:  # the probe takes the influence rows in the shape the steps do
        probe, rows = np.random.default_rng(0).random((8, n)), W[np.arange(8) % n][:, None, :]
        rows = (W if kind == "synchronous" else W[:1]) if len(iters) == 1 else rows
        if not np.array_equal(_social_stacked(rows, probe), _social_each(rows, probe)):
            social = _social_each
    blend = () if terms.blend is None else terms.blend
    tt = np.stack([np.broadcast_to(f, (T, n)) for f in (*terms[:5], *blend)])  # (fields, live trials, n)

    def as_terms(t):
        return RevisionTerms(*t[:5], (t[5], t[6]) if blend else None)

    def prepare(key):
        # a set's slice, influence rows and terms: of every live trial, or of the
        # lone one, as Python floats for one player
        idx, lone = slice(key[0], key[-1] + 1), len(live) == 1
        t = as_terms(tt[:, 0, idx] if lone else tt[:, :, idx])
        return idx, W[idx], t.item() if lone and len(key) == 1 else t

    def diverged(player, raw):
        return step_no - 1, "divergence_guard", f"player {player + 1}: raw opinion {float(raw)!r}"

    if record is not None:
        potentials = None  # a block's potentials from its rows and active sets, or None
        if _potential_fault(record) is None:
            from . import arcsum  # here, so `import coevo` and sweeps never compile it

            potentials = arcsum.recorder(record, W)
        B = _block_rows(n)
        bx, by, keys, k = np.empty((B, n), np.int8), np.empty((B, n)), [()], 1
        bx[0], by[0] = X[0], Y[0]

    steps, reasons, details = np.full(T, max_steps), ["max_steps"] * T, [""] * T
    # the live trials' rows, X and Y themselves until the first trial stops; each
    # live row that stops at this step -> its steps, stop reason and detail; and
    # each set's ``prepare`` while the live trials stay the same
    live, x, y, moved, step_no, ended, prepared = np.arange(T), X, Y, np.zeros(T, dtype=np.int64), 0, {}, {}
    lo, hi = -_DIVERGENCE_BAND, 1.0 + _DIVERGENCE_BAND
    while len(live) and step_no < max_steps:
        if len(live) > 1:
            step_no += 1
            if len(iters) == 1:  # every trial revises the same set
                key = next(iters[0])
                (cols, rows_w, t), rows = prepared.get(key) or prepared.setdefault(key, prepare(key)), slice(None)
            else:  # one player per trial
                players = np.array([next(it)[0] for it in iters])
                rows, cols = np.arange(len(live))[:, None], players[:, None]
                rows_w, t = W[players][:, None, :], as_terms(tt[:, rows, cols])
            delta, pulled = _revision(social(rows_w, y), t)
            s = (delta > DISCRIMINANT_TIE_TOL).astype(np.int8)
            y_raw = _opinion(s, pulled, t)
            x_old, y_old = x[rows, cols], y[rows, cols]
            # NaN fails every comparison, so non-finite updates trip the guard too
            if not (y_raw.min() >= lo and y_raw.max() <= hi):
                out = ~((y_raw >= lo) & (y_raw <= hi))
                bad = out.any(axis=1)
                for r in np.flatnonzero(bad):
                    j = int(np.argmax(out[r]))
                    ended[r] = diverged(key[j] if len(iters) == 1 else int(players[r]), y_raw[r, j])
                # a diverging trial ends at the state before this step
                s[bad], y_raw[bad] = x_old[bad], y_old[bad]
            # inactive coordinates are untouched, so they contribute exactly 0; a
            # changed action moves by exactly 1
            y_new = y_raw.clip(0.0, 1.0)  # keeps -0.0
            change = np.maximum(np.abs(y_new - y_old), s != x_old).max(axis=1)
            x[rows, cols], y[rows, cols] = s, y_new
            moved[change > fixed_point_tol] = step_no  # each live trial's last step that moved
            for r in (moved <= step_no - window).nonzero()[0]:
                ended.setdefault(r, (step_no, "fixed_point", ""))
        else:
            # the lone trial steps in place in its row of X and Y
            X[live], Y[live] = x, y
            x, y, it, streak = X[live[0]], Y[live[0]], iters[0], step_no - int(moved[0])
            for step_no in range(step_no + 1, max_steps + 1):
                key = next(it)
                idx, rows_w, t = prepared.get(key) or prepared.setdefault(key, prepare(key))
                s, y_raw = _revise(y, rows_w, t)
                one = len(key) == 1
                if not ((lo <= y_raw <= hi) if one else (y_raw.min() >= lo and y_raw.max() <= hi)):
                    raw = np.atleast_1d(y_raw)
                    bad = int(np.argmax(~((raw >= lo) & (raw <= hi))))
                    ended[0] = diverged(key[bad], raw[bad])
                    break
                if one:
                    i = key[0]
                    y_new = min(max(y_raw, 0.0), 1.0)  # keeps -0.0, as ndarray.clip does
                    change = max(abs(y_new - y.item(i)), float(s != x.item(i)))
                    x[i], y[i] = s, y_new
                else:
                    # the array methods skip the module functions' dispatch layers
                    y_active = y_raw.clip(0.0, 1.0)
                    change = max(float(np.abs(y_active - y[idx]).max()), float((s != x[idx]).any()))
                    x[idx], y[idx] = s, y_active
                if record is not None:
                    if k == B:
                        yield bx, by, keys, None if potentials is None else potentials(by, keys)
                        bx, by, keys, k = np.empty((B, n), np.int8), np.empty((B, n)), [], 0
                    bx[k], by[k] = x, y
                    keys.append(key)
                    k += 1
                streak = streak + 1 if change <= fixed_point_tol else 0
                if streak >= window:
                    ended[0] = (step_no, "fixed_point", "")
                    break
            x, y = X[live], Y[live]
        if ended:
            stop = np.zeros(len(live), dtype=bool)
            stop[list(ended)] = True
            for r, outcome in ended.items():
                steps[live[r]], reasons[live[r]], details[live[r]] = outcome
            X[live[stop]], Y[live[stop]] = x[stop], y[stop]
            keep, ended, prepared = ~stop, {}, {}
            live, x, y, tt, moved = live[keep], x[keep], y[keep], tt[:, keep], moved[keep]
            iters = iters if len(iters) == 1 else [it for it, kept in zip(iters, keep) if kept]
    X[live], Y[live] = x, y
    end[:] = X, Y, steps, reasons, details
    if record is not None:
        yield bx[:k], by[:k], keys, None if potentials is None else potentials(by[:k], keys)


def run(
    initial: SystemState,
    schedule: RevisionSchedule,
    params: ModelParams,
    net: Network,
    max_steps: int = 1_000_000,
    fixed_point_tol: float = 1e-10,
    record: bool = True,
) -> Trajectory:
    """Iterate the dynamics along the schedule until stationary or out of budget.

    Stops with ``fixed_point`` once no coordinate has moved by more than
    ``fixed_point_tol`` for a full coverage window of consecutive steps
    (window = schedule.T, or 4n for the non-compliant iid-random kind), with
    ``max_steps`` when the budget runs out first, and with
    ``divergence_guard`` if an update leaves the valid region by more than
    dust, which cannot happen under valid inputs and signals an internal
    fault; the trajectory then ends at the last valid state.

    A one-player set is revised in Python float arithmetic on one matvec
    entry, and an everyone-set with one matvec and array operations; both go
    through the same formulas and give the same bits as ``step``. Every
    player's ``beta + lam`` is checked before the first step.

    With ``record`` every state is kept, and the potential of each is logged,
    bit for bit as ``potential`` gives it, by ``arcsum.recorder`` whenever it
    is defined (all gamma zero, all beta positive). Without it only the final
    state is kept and no potential is computed, so memory does not grow with
    ``max_steps``; the stop and the final bits are the same.
    """
    _check_sizes(params, net, initial)
    _check_limits(max_steps, fixed_point_tol)
    if schedule.n != params.n:
        raise ValueError(f"schedule is for n={schedule.n}, params for n={params.n}")
    end: list = []
    blocks = list(_run_trials(initial.x[None], initial.y[None], [schedule], _revision_terms(params), net.W,
                              max_steps, fixed_point_tol, end, params if record else None))
    x, y, _, (stop_reason,), (stop_detail,) = end
    X, Y, keys, pots = zip(*blocks) if record else ((x,), (y,), ((),), (None,))
    potentials = None if pots[0] is None else np.concatenate(pots)
    active_sets = tuple(chain.from_iterable(keys))[1:]
    # the core's own rows, which the constructor's checks cannot fault
    return _trusted(Trajectory, x=np.concatenate(X), y=np.concatenate(Y), active_sets=active_sets,
                    potentials=potentials, stop_reason=stop_reason, stop_detail=stop_detail)


def is_fixed_point(
    state: SystemState,
    params: ModelParams,
    net: Network,
    tol: float = 1e-9,
) -> bool:
    """True when revising any player changes nothing.

    Checks that every action equals its discriminant sign (ties to defect)
    and every opinion sits within ``tol`` of its action-conditional optimum.
    """
    _check_sizes(params, net, state)
    stable, _, gap = _stationarity(state.x, state.y, net.W @ state.y, params)
    return bool(stable.all() and np.max(gap) <= tol)


def _potential_fault(params: ModelParams) -> str | None:
    """Why the potential is undefined for ``params``, or None where it is defined:
    every gamma zero and every beta positive."""
    return _regime_fault(params, (
        ("gamma", params.gamma != 0.0, "the potential is defined only for zero prejudice attachment"),
        ("beta", params.beta <= 0.0, "the potential divides by beta"),
    ))


def potential(y, params: ModelParams, net: Network) -> float:
    """Scalar certificate for opinion convergence once every action is defect.

    Non-decreasing along single-player opinion revisions on a symmetric
    network, with unique maximum 0 at y = 0. Requires all gamma zero and all
    beta positive. Recorded runs log the same bits by a cheaper path
    (``arcsum.recorder``), which is tested against this one.
    """
    _check_sizes(params, net)
    fault = _potential_fault(params)
    if fault is not None:
        raise ValueError(fault)
    y = _check_vector(y, params.n)
    spread = float((net.W / 2 * (y[:, None] - y[None, :]) ** 2).sum())
    return -0.5 * (spread + float((params.lam / params.beta * y**2).sum()))


def potential_matrix(params: ModelParams, net: Network) -> np.ndarray:
    """The matrix M with potential_quadratic(y) = -1/2 y^T M y, for symmetric networks."""
    _check_sizes(params, net)
    fault = _potential_fault(params)
    if fault is not None:
        raise ValueError(fault)
    if not net.is_symmetric:
        raise ValueError("the quadratic potential form requires a symmetric network")
    return np.eye(params.n) - net.W + np.diag(params.lam / params.beta)


def potential_matrix_is_positive_definite(params: ModelParams, net: Network) -> bool:
    """Cholesky-based positive-definiteness check of the quadratic-form matrix."""
    M = potential_matrix(params, net)
    try:
        np.linalg.cholesky(M)
        return True
    except np.linalg.LinAlgError:
        return False


def potential_quadratic(y, params: ModelParams, net: Network) -> float:
    """Quadratic-form evaluation of the potential; equals potential() for symmetric W."""
    M = potential_matrix(params, net)
    y = _check_vector(y, params.n)
    return -0.5 * float(y @ M @ y)


@dataclass(frozen=True)
class StateClass:
    """Consensus classification of a state.

    ``action_consensus``: "none", "all-defection", or "all-cooperation".
    ``opinion_consensus``: the shared opinion value (None when opinions
    disagree by more than the tolerance). ``full_class`` is
    "all-defection-consensus" for (x, y) = (0, 0), "all-cooperation-consensus"
    for (1, 1), else "none", with opinions compared at the same tolerance.
    """

    action_consensus: str
    opinion_consensus: float | None
    full_class: str


def classify_state(state: SystemState, opinion_tol: float = 1e-6) -> StateClass:
    """Label the consensus structure of a state: ``_state_classes`` of its one row."""
    return _state_classes(state.x[None], state.y[None], opinion_tol)[0]


def _state_classes(X: np.ndarray, Y: np.ndarray, opinion_tol: float = 1e-6) -> list[StateClass]:
    """The ``StateClass`` of each row of ``(k, n)`` actions and opinions, at once: the
    one labelling rule, which ``classify_state`` applies to a single state."""
    action = np.where((X == 0).all(axis=1), "all-defection", np.where((X == 1).all(axis=1), "all-cooperation", "none"))
    agree = (Y.max(axis=1) - Y.min(axis=1) <= opinion_tol).tolist()
    opinion = [m if ok else None for m, ok in zip(Y.mean(axis=1).tolist(), agree)]
    return [*map(StateClass, action.tolist(), opinion, _full_class(X, Y, opinion_tol).tolist())]


def _full_class(x: np.ndarray, y: np.ndarray, opinion_tol: float = 1e-6) -> np.ndarray:
    """``StateClass.full_class`` of each state of ``(..., n)`` actions and opinions, as
    a str array: all-defection with every opinion within ``opinion_tol`` of 0, or
    all-cooperation with every one within it of 1, and "none" otherwise."""
    defect = (x == 0).all(axis=-1) & (np.abs(y).max(axis=-1) <= opinion_tol)
    cooperate = (x == 1).all(axis=-1) & (np.abs(y - 1.0).max(axis=-1) <= opinion_tol)
    return np.where(defect, "all-defection-consensus", np.where(cooperate, "all-cooperation-consensus", "none"))
