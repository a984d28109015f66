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
    SystemState,
    _opinion,
    _revision,
    _stationarity,
)

SCHEDULE_KINDS = ("synchronous", "round-robin", "shuffled-rounds", "iid-random")

#: Raw opinion updates further than this outside [0, 1] indicate an internal
#: fault (legitimate row-sum dust is bounded by the 1e-9 network tolerance).
_DIVERGENCE_BAND = 1e-6


@dataclass(frozen=True)
class RevisionSchedule:
    """A reproducible generator of active player sets, one set per time step.

    ``T`` is the coverage window: every player activates at least once in any
    ``T`` consecutive steps. It is None for iid-random, which offers no such
    guarantee; convergence analyses must warn when handed such a schedule.
    ``seed`` drives the stochastic kinds; the deterministic kinds keep it so
    that callers can read back the seed a schedule was built with.
    """

    kind: str
    n: int
    seed: int
    T: int | None

    @property
    def stability_window(self) -> int:
        """Steps of no movement required to declare a trajectory stationary."""
        return self.T if self.T is not None else 4 * self.n

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
        elif self.kind == "iid-random":
            rng = np.random.default_rng(self.seed)
            while True:
                yield (int(rng.integers(n)),)
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")


def make_schedule(kind: str, n: int, seed: int | None = None) -> RevisionSchedule:
    """Build a revision schedule of the given kind.

    Kinds: ``synchronous`` (everyone every step, window 1), ``round-robin``
    (players 1..n cyclically, window n), ``shuffled-rounds`` (a fresh uniform
    permutation each block of n steps, window 2n-1), ``iid-random`` (one
    uniformly random player per step, no window guarantee). A missing
    ``seed`` is stored as 0.
    """
    if n < 2:
        raise ValueError(f"schedules need n >= 2, got {n}")
    if kind == "synchronous":
        T = 1
    elif kind == "round-robin":
        T = n
    elif kind == "shuffled-rounds":
        # worst case: a player leads one block and trails the next
        T = 2 * n - 1
    elif kind == "iid-random":
        T = None
    else:
        raise ValueError(f"unknown schedule kind {kind!r}; choose one of {SCHEDULE_KINDS}")
    return RevisionSchedule(kind, n, seed if seed is not None else 0, T)


def _check_compatible(state: SystemState, params: ModelParams, net: Network) -> None:
    if state.n != params.n or net.n != params.n:
        raise ValueError(
            f"size mismatch: state has {state.n} players, params {params.n}, network {net.n}"
        )


def _apply(
    state: SystemState,
    active: np.ndarray,
    params: ModelParams,
    net: Network,
) -> tuple[np.ndarray, np.ndarray]:
    """Raw simultaneous update of the active coordinates, before any clipping.

    All active players read the same pre-step opinions. Returns full-length
    (x', y') with inactive coordinates copied over.
    """
    delta, pulled = _revision(net.W[active] @ state.y, params, active)
    s = (delta > DISCRIMINANT_TIE_TOL).astype(np.int64)
    x_new = np.array(state.x)
    y_new = np.array(state.y)
    x_new[active] = s
    y_new[active] = _opinion(s, pulled, params, active)
    return x_new, y_new


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
    _check_compatible(state, params, net)
    active = np.unique(np.asarray(list(active), dtype=np.int64))
    if active.size == 0:
        return state
    if active.min() < 0 or active.max() >= params.n:
        raise IndexError(
            f"active set {active.tolist()} out of range for n={params.n} (0-based)"
        )
    x_new, y_new = _apply(state, active, params, net)
    return SystemState(x_new, np.clip(y_new, 0.0, 1.0))


@dataclass(frozen=True)
class Trajectory:
    """A recorded run: states[0] is the initial state.

    ``active_sets[t]`` is the set whose revision produced ``states[t+1]``, so
    it has one fewer entry than ``states``. ``potentials`` aligns with
    ``states`` and is None unless every player has zero prejudice attachment
    and positive opinion weight (the regime where the potential is defined).
    """

    states: tuple[SystemState, ...]
    active_sets: tuple[tuple[int, ...], ...]
    potentials: tuple[float, ...] | None
    stop_reason: str

    def __post_init__(self):
        expected = max(len(self.states) - 1, 0)
        if len(self.active_sets) != expected:
            raise ValueError(
                f"{len(self.states)} states need {expected} active sets, "
                f"got {len(self.active_sets)}"
            )
        if self.potentials is not None and len(self.potentials) != len(self.states):
            raise ValueError("potentials must align with states")
        # "unknown" marks trajectories parsed back from files, which do not
        # carry the stop reason
        if self.stop_reason not in ("fixed_point", "max_steps", "divergence_guard", "unknown"):
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")

    @property
    def final(self) -> SystemState:
        if not self.states:
            raise ValueError("empty trajectory has no final state")
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.states)


def run(
    initial: SystemState,
    schedule: RevisionSchedule,
    params: ModelParams,
    net: Network,
    max_steps: int = 1_000_000,
    fixed_point_tol: float = 1e-10,
) -> Trajectory:
    """Iterate the dynamics along the schedule until stationary or out of budget.

    Stops with ``fixed_point`` once no coordinate has moved by more than
    ``fixed_point_tol`` for a full coverage window of consecutive steps
    (window = schedule.T, or 4n for the non-compliant iid-random kind), with
    ``max_steps`` when the budget runs out first, and with
    ``divergence_guard`` if an update leaves the valid region by more than
    dust, which cannot happen under valid inputs and signals an internal
    fault. The potential of every recorded state is logged whenever it is
    defined (all gamma zero, all beta positive).
    """
    _check_compatible(initial, params, net)
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if schedule.n != params.n:
        raise ValueError(f"schedule is for n={schedule.n}, params for n={params.n}")

    track_potential = bool((params.gamma == 0.0).all() and (params.beta > 0.0).all())
    states = [initial]
    active_sets: list[tuple[int, ...]] = []
    potentials: list[float] | None = [potential(initial.y, params, net)] if track_potential else None

    window = schedule.stability_window
    streak = 0
    stop_reason = "max_steps"
    sets_iter = schedule.sets()
    current = initial
    for _ in range(max_steps):
        active = np.unique(np.asarray(next(sets_iter), dtype=np.int64))
        x_raw, y_raw = _apply(current, active, params, net)
        if (
            not np.isfinite(y_raw).all()
            or (y_raw < -_DIVERGENCE_BAND).any()
            or (y_raw > 1.0 + _DIVERGENCE_BAND).any()
        ):
            stop_reason = "divergence_guard"
            break
        new = SystemState(x_raw, np.clip(y_raw, 0.0, 1.0))
        change = max(
            float(np.max(np.abs(new.y - current.y))),
            float(np.max(np.abs(new.x - current.x))),
        )
        states.append(new)
        active_sets.append(tuple(int(i) for i in active))
        if potentials is not None:
            potentials.append(potential(new.y, params, net))
        current = new
        streak = streak + 1 if change <= fixed_point_tol else 0
        if streak >= window:
            stop_reason = "fixed_point"
            break
    return Trajectory(
        states=tuple(states),
        active_sets=tuple(active_sets),
        potentials=tuple(potentials) if potentials is not None else None,
        stop_reason=stop_reason,
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
    _check_compatible(state, params, net)
    delta, gap = _stationarity(state.x, state.y, net.W @ state.y, params)
    return bool(
        np.array_equal(state.x, delta > DISCRIMINANT_TIE_TOL) and np.max(gap) <= tol
    )


def _require_potential_regime(params: ModelParams) -> None:
    if (params.gamma != 0.0).any():
        bad = int(np.argmax(params.gamma != 0.0))
        raise ValueError(
            f"player {bad + 1}: the potential is defined only for zero prejudice "
            f"attachment, got gamma={params.gamma[bad]}"
        )
    if (params.beta <= 0.0).any():
        bad = int(np.argmax(params.beta <= 0.0))
        raise ValueError(
            f"player {bad + 1}: the potential divides by beta, got beta={params.beta[bad]}"
        )


def potential(y, params: ModelParams, net: Network) -> float:
    """Scalar certificate for opinion convergence once every action is defect.

    Non-decreasing along single-player opinion revisions on a symmetric
    network, with unique maximum 0 at y = 0. Requires all gamma zero and all
    beta positive.
    """
    _require_potential_regime(params)
    y = np.asarray(y, dtype=float)
    if y.shape != (params.n,):
        raise ValueError(f"opinion vector must have length {params.n}, got shape {y.shape}")
    diffs = y[:, None] - y[None, :]
    disagreement = float((net.W / 2.0 * diffs**2).sum())
    anchor = float(((params.lam / params.beta) * y**2).sum())
    return -0.5 * (disagreement + anchor)


def potential_matrix(params: ModelParams, net: Network) -> np.ndarray:
    """The matrix M with potential_quadratic(y) = -1/2 y^T M y, for symmetric networks."""
    _require_potential_regime(params)
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
    y = np.asarray(y, dtype=float)
    if y.shape != (params.n,):
        raise ValueError(f"opinion vector must have length {params.n}, got shape {y.shape}")
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
