"""Domain types, revision schedules and pure payoff maps of the coupled action-opinion game.

Each of ``n`` players holds a binary action (0 = defect, 1 = cooperate and
contribute one unit to a public pool multiplied by ``r``) and a continuous
opinion in [0, 1] expressing support for cooperation. A player's payoff is a
convex combination of their public-goods share, a quadratic disagreement cost
against neighbours' opinions on a row-stochastic influence network, and a
self-consistency penalty for holding an action that contradicts their own
opinion.

Everything in this module is a pure function of its arguments; the types are
immutable value objects, safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterator, NamedTuple

import numpy as np

#: |discriminant| at or below this tolerance is treated as an exact tie
#: between the two actions, in which case both are best responses.
DISCRIMINANT_TIE_TOL = 1e-12

#: Per-player payoff weights must sum to 1 within this absolute tolerance.
WEIGHT_SUM_TOL = 1e-12

#: Influence-matrix rows must sum to 1 within this absolute tolerance.
ROW_SUM_TOL = 1e-9


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_weight_vector(name: str, values: np.ndarray, n: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contains non-finite entries")
    if (values < 0.0).any() or (values > 1.0).any():
        bad = int(np.argmax((values < 0.0) | (values > 1.0)))
        raise ValueError(
            f"player {bad + 1}: {name} must lie in [0, 1], got {float(values[bad])!r}"
        )
    return values


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Per-player parameters of the game.

    Attributes:
        n: number of players, at least 2.
        r: public good multiplier, strictly between 1 and n.
        alpha: weight on the public-goods payoff, per player, in [0, 1].
        beta: weight on the opinion payoff, per player, in [0, 1].
        lam: weight on the action-opinion consistency penalty, per player.
        gamma: attachment to the constant prejudice, per player, in [0, 1].
        prejudice: the prejudice value each player is attached to, in [0, 1].

    For every player, ``alpha + beta + lam`` must equal 1 (tolerance
    ``WEIGHT_SUM_TOL``).
    """

    n: int
    r: float
    alpha: np.ndarray
    beta: np.ndarray
    lam: np.ndarray
    gamma: np.ndarray
    prejudice: np.ndarray

    def __post_init__(self):
        if not _is_int(self.n):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        n = int(self.n)
        if n < 2:
            raise ValueError(f"need at least 2 players, got n={n}")
        r = float(self.r)
        if not np.isfinite(r) or not (1.0 < r < n):
            raise ValueError(f"public good multiplier must satisfy 1 < r < n, got r={r} with n={n}")
        alpha = _check_weight_vector("alpha", self.alpha, n)
        beta = _check_weight_vector("beta", self.beta, n)
        lam = _check_weight_vector("lam", self.lam, n)
        gamma = _check_weight_vector("gamma", self.gamma, n)
        prejudice = _check_weight_vector("prejudice", self.prejudice, n)
        sums = alpha + beta + lam
        off = np.abs(sums - 1.0)
        if (off > WEIGHT_SUM_TOL).any():
            bad = int(np.argmax(off))
            raise ValueError(
                f"player {bad + 1}: alpha + beta + lam must sum to 1, got {float(sums[bad])!r}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "alpha", _frozen_array(alpha))
        object.__setattr__(self, "beta", _frozen_array(beta))
        object.__setattr__(self, "lam", _frozen_array(lam))
        object.__setattr__(self, "gamma", _frozen_array(gamma))
        object.__setattr__(self, "prejudice", _frozen_array(prejudice))

    @classmethod
    def uniform(
        cls,
        n: int,
        r: float,
        alpha: float,
        beta: float,
        lam: float | None = None,
        gamma: float = 0.0,
        prejudice: float = 0.5,
    ) -> "ModelParams":
        """Build parameters shared by all players; ``lam`` defaults to 1 - alpha - beta."""
        if lam is None:
            lam = 1.0 - alpha - beta
        return cls(
            n=n,
            r=r,
            alpha=np.full(n, float(alpha)),
            beta=np.full(n, float(beta)),
            lam=np.full(n, float(lam)),
            gamma=np.full(n, float(gamma)),
            prejudice=np.full(n, float(prejudice)),
        )

    @property
    def strict_interior(self) -> bool:
        """True when all of alpha, beta, lam lie strictly inside (0, 1) and gamma is 0: the
        regime of the consensus conditions, whose checks refuse params outside it."""
        return _interior_fault(self) is None


def _regime_fault(params: ModelParams, rules) -> str | None:
    """The first player outside a parameter regime, or None inside it. ``rules`` lists
    ``(field, bad, why)`` in order, ``bad`` a per-player mask of that field."""
    for name, bad, why in rules:
        if bad.any():
            k = int(np.argmax(bad))
            return f"player {k + 1}: {why}, got {name}={getattr(params, name)[k]}"
    return None


def _interior_fault(params: ModelParams) -> str | None:
    """``_regime_fault`` of the strict interior: alpha, beta, lam inside (0, 1), gamma 0."""
    why = "the consensus conditions are stated for the strict interior (alpha, beta, lam inside (0, 1), gamma = 0)"
    weights = [(w, (getattr(params, w) <= 0.0) | (getattr(params, w) >= 1.0), why) for w in ("alpha", "beta", "lam")]
    return _regime_fault(params, [*weights, ("gamma", params.gamma != 0.0, why)])


def _reaches_all(A: np.ndarray) -> bool:
    """True when node 0 reaches every node along the arcs ``i -> j`` where ``A[i, j]``."""
    # frontier search: each node enters the frontier once, so the work is O(n^2)
    seen = np.zeros(A.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = A[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def _row_sums(W: np.ndarray) -> np.ndarray:
    """The sum of each row of ``W``; a sum past the largest double is inf, without numpy's warning."""
    with np.errstate(over="ignore"):
        return W.sum(axis=1)


@dataclass(frozen=True, eq=False)
class Network:
    """A weighted influence network with a row-stochastic weight matrix.

    ``W[i, j]`` is the influence of player j on player i. Rows must be
    nonnegative and sum to 1 within ``ROW_SUM_TOL``. Self-loops
    (``W[i, i] > 0``) are permitted. ``is_irreducible``: every node reaches
    every other along the arcs ``W[i, j] > 0`` (a single node counts).
    """

    W: np.ndarray
    n: int = field(init=False)
    is_symmetric: bool = field(init=False)
    is_irreducible: bool = field(init=False)

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"influence matrix must be square, got shape {W.shape}")
        n = W.shape[0]
        if n < 1:
            raise ValueError("influence matrix must have at least one node")
        if not np.isfinite(W).all():
            raise ValueError("influence matrix contains non-finite entries")
        if (W < 0.0).any():
            i, j = np.unravel_index(int(np.argmin(W)), W.shape)
            raise ValueError(f"negative weight W[{i + 1}, {j + 1}] = {float(W[i, j])!r}")
        sums = _row_sums(W)
        off = np.abs(sums - 1.0)
        if (off > ROW_SUM_TOL).any():
            bad = int(np.argmax(off))
            raise ValueError(
                f"row {bad + 1} of the influence matrix sums to {float(sums[bad])!r}, must be 1"
            )
        object.__setattr__(self, "W", _frozen_array(W))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "is_symmetric", bool(np.array_equal(W, W.T)))
        A = W > 0.0
        object.__setattr__(self, "is_irreducible", _reaches_all(A) and _reaches_all(A.T))

    @classmethod
    def from_matrix(cls, W, normalise: bool = False) -> "Network":
        """Build a network, optionally dividing each row by its sum first.

        Normalisation rejects rows whose sum is zero or not finite.
        """
        W = np.asarray(W, dtype=float)
        if normalise:
            if W.ndim != 2 or W.shape[0] != W.shape[1]:
                raise ValueError(f"influence matrix must be square, got shape {W.shape}")
            sums = _row_sums(W)
            bad = (sums == 0.0) | ~np.isfinite(sums)
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"row {k + 1} sums to {float(sums[k]) or 'zero'} and cannot be normalised")
            W = W / sums[:, None]
        return cls(W)


def _state_fault(x, y) -> tuple[tuple[int, ...], str] | None:
    """The first entry of ``(..., n)`` actions ``x`` (None: opinions alone) and
    opinions ``y`` outside {0,1}^n x [0,1]^n, as ``(index, "player k: <rule>, got
    <value>")``, or None. Rows go in order, a row's actions before its opinions,
    so on one row the message is the one ``SystemState`` raises."""
    bad_y = ~((y >= 0.0) & (y <= 1.0))
    bad_x = np.zeros_like(bad_y) if x is None else (x != 0) & (x != 1)
    bad = np.stack([bad_x, bad_y], axis=-2)
    if not bad.any():
        return None
    *row, part, player = map(int, np.unravel_index(int(np.argmax(bad)), bad.shape))
    values, rule = ((x, "action must be 0 or 1"), (y, "opinion must lie in [0, 1]"))[part]
    return (*row, player), f"player {player + 1}: {rule}, got {values[tuple(row)].tolist()[player]!r}"


def _check_state(x, y) -> None:
    """Raise ``_state_fault``'s message, led by ``row t: `` for ``(rows, n)`` arrays."""
    fault = _state_fault(x, y)
    if fault is not None:
        raise ValueError(fault[1] if len(fault[0]) == 1 else f"row {fault[0][0]}: {fault[1]}")


def _trusted(cls, **fields):
    """A ``cls`` holding ``fields`` as given, past ``__post_init__``'s checks and casts:
    for the engine's own output, which its maker checked in bulk or cannot be wrong."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True, eq=False)
class SystemState:
    """Joint state: action vector x in {0,1}^n and opinion vector y in [0,1]^n."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x)
        if not np.issubdtype(x.dtype, np.number):
            raise ValueError("actions must be numeric 0/1 values")
        if x.ndim != 1:
            raise ValueError(f"action vector must be 1-d, got shape {x.shape}")
        y = np.asarray(self.y, dtype=float)
        if y.shape != x.shape:
            raise ValueError(
                f"action and opinion vectors differ in length: {x.shape} vs {y.shape}"
            )
        # checked before the cast, which would truncate 0.7 to 0
        _check_state(x, y)
        object.__setattr__(self, "x", _frozen_array(x, dtype=np.int64))
        object.__setattr__(self, "y", _frozen_array(y))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SystemState):
            return NotImplemented
        return np.array_equal(self.x, other.x) and np.array_equal(self.y, other.y)

    @classmethod
    def all_defection(cls, n: int) -> "SystemState":
        """The state with every action 0 and every opinion 0."""
        return cls(np.zeros(n, dtype=np.int64), np.zeros(n))

    @classmethod
    def all_cooperation(cls, n: int) -> "SystemState":
        """The state with every action 1 and every opinion 1."""
        return cls(np.ones(n, dtype=np.int64), np.ones(n))


@dataclass(frozen=True, eq=False)
class BestResponseSet:
    """The set of payoff-maximising (action, opinion) pairs for one player.

    Holds one entry when the discriminant is nonzero, and two entries (one per
    action, defect first) when the discriminant ties at zero.
    """

    entries: tuple[tuple[int, float], ...]
    discriminant_value: float

    def __post_init__(self):
        if len(self.entries) not in (1, 2):
            raise ValueError("a best-response set holds one or two entries")

    @property
    def actions(self) -> tuple[int, ...]:
        return tuple(action for action, _ in self.entries)

    def opinion_for(self, action: int) -> float:
        for a, opinion in self.entries:
            if a == action:
                return opinion
        raise KeyError(f"action {action} is not a best response")


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


@dataclass(frozen=True)
class RevisionSchedule:
    """A reproducible generator of active player sets, one set per time step.

    Every set is one player ``(i,)`` or everyone ``(0, ..., n-1)``: a sorted,
    contiguous run of 0-based indices. A lone run reads it as one slice, and a
    step of many runs as one column per run or all of them.
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
        """Fresh infinite iterator of active sets (0-based indices), each
        distinct set one tuple object throughout.

        Repeated calls replay the identical sequence; stochastic kinds are
        seeded.
        """
        n = self.n
        if self.kind == "synchronous":
            everyone = tuple(range(n))
            while True:
                yield everyone
        singles = tuple((i,) for i in range(n))
        if self.kind == "round-robin":
            while True:
                yield from singles
        rng = np.random.default_rng(self.seed)
        if self.kind == "shuffled-rounds":
            while True:
                for i in rng.permutation(n):
                    yield singles[i]
        while True:  # iid-random
            yield singles[rng.integers(n)]


def make_schedule(kind: str, n: int, seed: int | None = None) -> RevisionSchedule:
    """A revision schedule of one of the ``SCHEDULE_KINDS``; a missing ``seed`` is stored as 0."""
    return RevisionSchedule(kind, n, 0 if seed is None else seed)


def _is_int(value) -> bool:
    """True for Python and numpy integers; False for bools, floats and everything else."""
    # the exact type test first: step() checks every active id, and an
    # isinstance test against the ABC is over ten times slower
    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))


def _check_player(i: int, n: int) -> int:
    if not _is_int(i):
        raise ValueError(f"player index must be an integer, got {i!r}")
    i = int(i)
    if not 0 <= i < n:
        raise IndexError(f"player index {i} out of range for n={n} (indices are 0-based)")
    return i


def _check_vector(values, n: int, actions: bool = False) -> np.ndarray:
    """``values`` as a length-``n`` float vector, checked as ``SystemState``'s actions or opinions."""
    out = np.asarray(values, dtype=float)
    if out.shape != (n,):
        raise ValueError(f"{'action' if actions else 'opinion'} vector must have length {n}, got shape {out.shape}")
    _check_state(out if actions else None, np.zeros(n) if actions else out)
    return out


def _check_sizes(params: ModelParams, net: Network, state: SystemState | None = None) -> None:
    """Refuse a network, or a state when given, that is not sized for ``params``."""
    if net.n != params.n or (state is not None and state.n != params.n):
        held = "" if state is None else f"state has {state.n} players, "
        raise ValueError(f"size mismatch: {held}params {params.n}, network {net.n}")


def _check_limits(max_steps, tol, prefix: str = "") -> None:
    """Refuse a step budget that is not an integer >= 1, and a bool, NaN, infinite,
    zero or negative stopping tolerance; ``prefix`` leads each field name."""
    if not (_is_int(max_steps) and max_steps >= 1):
        raise ValueError(f"{prefix}max_steps must be an integer >= 1, got {max_steps!r}")
    if isinstance(tol, bool) or not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"{prefix}fixed_point_tol must be finite and positive, got {tol}")


def pgg_payoff(i: int, x, params: ModelParams) -> float:
    """Public-goods payoff of player ``i`` under action vector ``x``.

    A cooperator receives r * (number of cooperators) / n minus their unit
    contribution; a defector receives the same pool share without
    contributing.
    """
    return _pgg_payoff(_check_player(i, params.n), _check_vector(x, params.n, actions=True), params)


def _pgg_payoff(i: int, x: np.ndarray, params: ModelParams) -> float:
    """``pgg_payoff`` of a checked player and action vector."""
    others = float(x.sum() - x[i])
    if x[i]:
        return params.r * (others + 1.0) / params.n - 1.0
    return (params.r / params.n) * others


def opinion_payoff(i: int, y, params: ModelParams, net: Network) -> float:
    """Opinion payoff of player ``i``: negative quadratic disagreement.

    Penalises squared differences with neighbours' opinions (weight
    ``1 - gamma``) and with the player's own prejudice (weight ``gamma``).
    """
    i = _check_player(i, params.n)
    y = _check_vector(y, params.n)
    _check_sizes(params, net)
    return _opinion_payoff(i, y, params, net)


def _opinion_payoff(i: int, y: np.ndarray, params: ModelParams, net: Network) -> float:
    """``opinion_payoff`` of a checked player, opinion vector and network."""
    g = params.gamma[i]
    disagreement = float(np.dot(net.W[i], (y[i] - y) ** 2))
    return -0.5 * (1.0 - g) * disagreement - 0.5 * g * (y[i] - params.prejudice[i]) ** 2


def total_payoff(i: int, state: SystemState, params: ModelParams, net: Network) -> float:
    """Joint payoff: alpha * game share + beta * opinion payoff - lam/2 * (x - y)^2.

    The state checked its vectors when it was built, so only the player and
    the sizes are checked here.
    """
    i = _check_player(i, params.n)
    _check_sizes(params, net, state)
    consistency = 0.5 * params.lam[i] * float(state.x[i] - state.y[i]) ** 2
    return (
        params.alpha[i] * _pgg_payoff(i, state.x, params)
        + params.beta[i] * _opinion_payoff(i, state.y, params, net)
        - consistency
    )


def social_term(i: int, y, net: Network) -> float:
    """Influence-weighted average of opinions as seen by player ``i``.

    Lies in [0, 1] whenever the opinions do, because rows of W sum to 1.
    """
    i = _check_player(i, net.n)
    y = _check_vector(y, net.n)
    return float(np.dot(net.W[i], y))


class RevisionTerms(NamedTuple):
    """The parameter-only part of the best response of a set of players.

    ``base`` is ``alpha * (r/n - 1)``, ``coupling`` is ``beta * lam / (beta + lam)``
    and ``denom`` is ``beta + lam``. ``blend`` is ``(1 - gamma, gamma * prejudice)``,
    or None when none of the players is attached to a prejudice.
    """

    base: np.ndarray
    coupling: np.ndarray
    beta: np.ndarray
    lam: np.ndarray
    denom: np.ndarray
    blend: tuple[np.ndarray, np.ndarray] | None

    def item(self) -> RevisionTerms:
        """The terms of a single player as Python floats, for scalar arithmetic."""
        blend = None if self.blend is None else (self.blend[0].item(), self.blend[1].item())
        return RevisionTerms(*(a.item() for a in self[:5]), blend)


def _revision_terms(params: ModelParams, players=slice(None)) -> RevisionTerms:
    """``RevisionTerms`` of the listed players: an index, an index array or a slice.

    Raises a ValueError naming the first listed player whose ``beta + lam`` is
    not positive, for whom the best response is undefined.
    """
    beta = params.beta[players]
    lam = params.lam[players]
    denom = beta + lam
    if (denom <= 0.0).any():
        bad = int(np.ravel(np.arange(params.n)[players])[np.argmax(denom <= 0.0)])
        raise ValueError(
            f"player {bad + 1}: beta + lam must be positive (got beta={params.beta[bad]}, "
            f"lam={params.lam[bad]}); the best response is undefined otherwise"
        )
    g = params.gamma[players]
    # with no prejudice attachment the blend would return ``social`` bit for
    # bit; skipping it spares batched callers one full-size temporary
    blend = (1.0 - g, g * params.prejudice[players]) if g.any() else None
    base = params.alpha[players] * (params.r / params.n - 1.0)
    return RevisionTerms(base, beta * lam / denom, beta, lam, denom, blend)


def _revision(social, terms: RevisionTerms):
    """Discriminant and prejudice-blended social pull of the players of ``terms``.

    ``social`` holds ``W[i] @ y`` for each of those players along its last
    axis, with any leading batch axes. Returns ``(discriminant, pulled)``
    shaped like ``social``.
    """
    pulled = social if terms.blend is None else terms.blend[0] * social + terms.blend[1]
    return terms.base + terms.coupling * (pulled - 0.5), pulled


def _opinion(actions, pulled, terms: RevisionTerms):
    """Optimal opinion of the players of ``terms`` for ``actions``, given their ``pulled``."""
    return (terms.beta * pulled + actions * terms.lam) / terms.denom


def _stationarity(x, y, social, params: ModelParams):
    """Per-player ``(stable, nash, gap)`` over ``(..., n)`` profiles; ``social`` is ``W @ y``.

    ``stable``: the dynamics keep the action (ties defect); ``nash``: it is a best
    response (a tie admits either); ``gap``: distance from its optimal opinion.
    """
    terms = _revision_terms(params)
    delta, pulled = _revision(social, terms)
    gap = np.abs(y - _opinion(x, pulled, terms))
    eps = DISCRIMINANT_TIE_TOL
    stable = x == (delta > eps)
    nash = np.where(x == 1, delta >= -eps, delta <= eps)
    return stable, nash, gap


def discriminant(i: int, y, params: ModelParams, net: Network) -> float:
    """Scalar whose sign determines player ``i``'s best-response action.

    Positive favours cooperation, negative favours defection, zero ties.
    Depends on opinions only, never on any action vector, which is why this
    function takes no actions.
    """
    _check_sizes(params, net)
    i = _check_player(i, params.n)
    return _revision(social_term(i, y, net), _revision_terms(params, i))[0]


def best_response(i: int, y, params: ModelParams, net: Network) -> BestResponseSet:
    """All payoff-maximising (action, opinion) pairs for player ``i`` given opinions ``y``.

    The optimal opinion for a chosen action ``s`` is the convex combination
    ``(beta * ((1 - gamma) * social + gamma * prejudice) + s * lam) / (beta + lam)``,
    so it always lies in [0, 1]. A discriminant within ``DISCRIMINANT_TIE_TOL``
    of zero yields both actions, each with its own optimal opinion.

    The one-shot payoff-optimality of the returned pairs is exact when
    ``w_ii = 0``. With a positive self-weight the social term keeps the
    player's own current opinion inside it, making the returned opinion a
    damped step toward the true argmax rather than the argmax itself; fixed
    points of the two maps coincide, so equilibrium analyses are unaffected.
    """
    _check_sizes(params, net)
    i = _check_player(i, params.n)
    terms = _revision_terms(params, i)
    disc, pulled = _revision(social_term(i, y, net), terms)
    if abs(disc) <= DISCRIMINANT_TIE_TOL:
        actions: tuple[int, ...] = (0, 1)
    elif disc > 0.0:
        actions = (1,)
    else:
        actions = (0,)
    entries = tuple((s, _opinion(s, pulled, terms)) for s in actions)
    return BestResponseSet(entries=entries, discriminant_value=disc)
