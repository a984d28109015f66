"""Discrete-time best-response dynamics over the joint action-opinion state.

At each step an active set of players simultaneously replaces their action
with the sign of the discriminant (ties break to defect) and their opinion
with the action-conditional optimum; inactive players keep their state
bit-identically. Revision schedules decide who is active when; the compliant
kinds guarantee every player activates within a fixed window, which is what
the convergence analysis assumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import (
    DISCRIMINANT_TIE_TOL,
    ModelParams,
    Network,
    RevisionTerms,
    SystemState,
    _check_sizes,
    _check_vector,
    _is_int,
    _opinion,
    _revision,
    _revision_terms,
    _stationarity,
)

#: Schedule kind -> its coverage window for n players (None: no guarantee).
_WINDOWS = {
    "synchronous": lambda n: 1,  # everyone every step
    "round-robin": lambda n: n,  # players 1..n cyclically
    # a fresh uniform permutation each block of n steps; in the worst case a
    # player leads one block and trails the next
    "shuffled-rounds": lambda n: 2 * n - 1,
    "iid-random": lambda n: None,  # one uniformly random player per step
}
SCHEDULE_KINDS = tuple(_WINDOWS)


#: Raw opinion updates further than this outside [0, 1] indicate an internal
#: fault (legitimate row-sum dust is bounded by the 1e-9 network tolerance).
_DIVERGENCE_BAND = 1e-6


@dataclass(frozen=True)
class RevisionSchedule:
    """A reproducible generator of active player sets, one set per time step.

    Every set is one player ``(i,)`` or everyone ``(0, ..., n-1)``: a sorted,
    contiguous run of 0-based indices, which ``run`` reads as one slice.
    ``seed`` drives the stochastic kinds; the deterministic kinds keep it so
    that callers can read back the seed a schedule was built with.
    """

    kind: str
    n: int
    seed: int = 0

    def __post_init__(self):
        if not _is_int(self.n):
            raise ValueError(f"schedule n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"schedules need n >= 2, got {self.n}")
        # a tuple test, not a dict lookup, so an unhashable kind is refused as unknown
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}; choose one of {SCHEDULE_KINDS}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"schedule seed must be a non-negative integer, got {self.seed!r}")

    @property
    def T(self) -> int | None:
        """The coverage window: every player activates at least once in any ``T``
        consecutive steps. None for iid-random, which offers no such guarantee;
        convergence analyses must warn when handed such a schedule."""
        return _WINDOWS[self.kind](self.n)

    @property
    def stability_window(self) -> int:
        """Steps of no movement required to declare a trajectory stationary."""
        T = self.T
        return T if T is not None else 4 * self.n

    def sets(self) -> Iterator[tuple[int, ...]]:
        """Fresh infinite iterator of active sets (0-based indices).

        Repeated calls replay the identical sequence; stochastic kinds are
        seeded.
        """
        n = self.n
        if self.kind == "synchronous":
            everyone = tuple(range(n))
            while True:
                yield everyone
        elif self.kind == "round-robin":
            while True:
                for i in range(n):
                    yield (i,)
        elif self.kind == "shuffled-rounds":
            rng = np.random.default_rng(self.seed)
            while True:
                for i in rng.permutation(n):
                    yield (int(i),)
        else:  # iid-random
            rng = np.random.default_rng(self.seed)
            while True:
                yield (int(rng.integers(n)),)


def make_schedule(kind: str, n: int, seed: int | None = None) -> RevisionSchedule:
    """A revision schedule of one of the ``SCHEDULE_KINDS``; a missing ``seed`` is stored as 0."""
    return RevisionSchedule(kind, n, 0 if seed is None else seed)


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
        x = np.asarray(self.x, dtype=np.int8)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or x.shape != y.shape:
            raise ValueError(
                f"actions and opinions must be (rows, n) arrays of one shape, "
                f"got {x.shape} and {y.shape}"
            )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        expected = max(len(x) - 1, 0)
        if len(self.active_sets) != expected:
            raise ValueError(
                f"{len(x)} states need {expected} active sets, got {len(self.active_sets)}"
            )
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


def _check_tolerance(tol, field: str = "fixed_point_tol") -> None:
    """Refuse a NaN, infinite, zero or negative stopping tolerance."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"{field} must be finite and positive, got {tol}")


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
    through the same formulas and give the same bits as ``step``.

    With ``record`` every state is kept, and the potential of each is logged
    whenever it is defined (all gamma zero, all beta positive). Without it
    only the final state is kept and no potential is computed, so memory does
    not grow with ``max_steps``.
    """
    _check_sizes(params, net, initial)
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    _check_tolerance(fixed_point_tol)
    if schedule.n != params.n:
        raise ValueError(f"schedule is for n={schedule.n}, params for n={params.n}")

    x = initial.x.astype(np.int8)
    y = np.array(initial.y)
    # recorded rows are copies, stacked once after the loop
    xs, ys = ([x.copy()], [y.copy()]) if record else ([], [])
    active_sets: list[tuple[int, ...]] = []
    # schedules repeat a few distinct sets, each one player or everyone: keep
    # each one's slice, influence rows and revision terms, so a step is one
    # matvec and the best response, in float arithmetic for one player (whose
    # terms are Python floats) and elementwise for everyone
    prepared: dict[tuple[int, ...], tuple] = {}

    lo, hi = -_DIVERGENCE_BAND, 1.0 + _DIVERGENCE_BAND
    window = schedule.stability_window
    streak = 0
    stop_reason = "max_steps"
    stop_detail = ""
    sets_iter = schedule.sets()
    for _ in range(max_steps):
        key = next(sets_iter)
        entry = prepared.get(key)
        if entry is None:
            idx = slice(key[0], key[-1] + 1)
            terms = _revision_terms(params, idx)
            entry = prepared[key] = (idx, net.W[idx], terms.item() if len(key) == 1 else terms)
        idx, rows_w, terms = entry
        s, y_raw = _revise(y, rows_w, terms)
        one = len(key) == 1
        # NaN fails every comparison, so non-finite updates trip the guard too
        if not ((lo <= y_raw <= hi) if one else (y_raw.min() >= lo and y_raw.max() <= hi)):
            raw = np.atleast_1d(y_raw)
            bad = int(np.argmax(~((raw >= lo) & (raw <= hi))))
            stop_reason = "divergence_guard"
            stop_detail = f"player {key[bad] + 1}: raw opinion {float(raw[bad])!r}"
            break
        # inactive coordinates are untouched, so they contribute exactly 0; a
        # changed action moves by exactly 1
        if one:
            i = key[0]
            y_new = min(max(y_raw, 0.0), 1.0)  # keeps -0.0, as ndarray.clip does
            change = max(abs(y_new - y.item(i)), float(s != x.item(i)))
            x[i] = s
            y[i] = y_new
        else:
            # the array methods skip the module functions' dispatch layers
            y_active = y_raw.clip(0.0, 1.0)
            change = max(
                float(np.abs(y_active - y[idx]).max()),
                float((s != x[idx]).any()),
            )
            x[idx] = s
            y[idx] = y_active
        if record:
            xs.append(x.copy())
            ys.append(y.copy())
            active_sets.append(key)
        streak = streak + 1 if change <= fixed_point_tol else 0
        if streak >= window:
            stop_reason = "fixed_point"
            break
    X, Y = (np.stack(xs), np.stack(ys)) if record else (x[None, :], y[None, :])
    defined = record and _potential_fault(params) is None
    return Trajectory(
        x=X,
        y=Y,
        active_sets=tuple(active_sets),
        potentials=_potentials(Y, active_sets, params, net) if defined else None,
        stop_reason=stop_reason,
        stop_detail=stop_detail,
    )


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
    for values, bad, why in (
        (params.gamma, params.gamma != 0.0, "is defined only for zero prejudice attachment, got gamma"),
        (params.beta, params.beta <= 0.0, "divides by beta, got beta"),
    ):
        if bad.any():
            k = int(np.argmax(bad))
            return f"player {k + 1}: the potential {why}={values[k]}"
    return None


def potential(y, params: ModelParams, net: Network) -> float:
    """Scalar certificate for opinion convergence once every action is defect.

    Non-decreasing along single-player opinion revisions on a symmetric
    network, with unique maximum 0 at y = 0. Requires all gamma zero and all
    beta positive.
    """
    _check_sizes(params, net)
    fault = _potential_fault(params)
    if fault is not None:
        raise ValueError(fault)
    y = _check_vector("opinion vector", y, params.n)
    return float(_potentials(y[None, :], (), params, net)[0])


def _potentials(Y: np.ndarray, active_sets, params: ModelParams, net: Network) -> np.ndarray:
    """``potential`` of every row of ``Y``, where ``active_sets[t]`` revised row t into row t+1.

    The terms ``W/2 * (y_i - y_j)^2`` live in one n-by-n buffer, in the operations
    and order of ``-(sum(W/2 * (y_i - y_j)^2) + sum(lam/beta * y^2)) / 2``. Row 0
    and rows that every player revised refresh all terms; any other row rewrites
    only its active players' rows and columns, the only terms that changed.
    """
    half_w = net.W / 2.0
    anchor_w = params.lam / params.beta
    buf = np.empty_like(half_w)
    out = np.empty(len(Y))
    for t, y in enumerate(Y):
        if t == 0 or len(active_sets[t - 1]) == params.n:
            np.subtract(y[:, None], y[None, :], out=buf)
            np.square(buf, out=buf)
            np.multiply(half_w, buf, out=buf)
        else:
            for i in active_sets[t - 1]:
                buf[i] = half_w[i] * np.square(y[i] - y)
                buf[:, i] = half_w[:, i] * np.square(y - y[i])
        out[t] = -0.5 * (float(buf.sum()) + float((anchor_w * y**2).sum()))
    return out


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
    y = _check_vector("opinion vector", y, params.n)
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
    """Label the consensus structure of a state."""
    x, y = state.x, state.y
    if (x == 0).all():
        action = "all-defection"
    elif (x == 1).all():
        action = "all-cooperation"
    else:
        action = "none"
    spread = float(y.max() - y.min())
    opinion = float(y.mean()) if spread <= opinion_tol else None
    full = "none"
    if action == "all-defection" and float(np.abs(y).max()) <= opinion_tol:
        full = "all-defection-consensus"
    elif action == "all-cooperation" and float(np.abs(y - 1.0).max()) <= opinion_tol:
        full = "all-cooperation-consensus"
    return StateClass(action_consensus=action, opinion_consensus=opinion, full_class=full)
