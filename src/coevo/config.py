"""Experiment configuration: one JSON document describing params, network,
schedule, initial state, and run budget.

Example:

    {
      "params": {"n": 4, "r": 2.0, "alpha": 0.3333333333333333,
                 "beta": 0.3333333333333333},
      "network": {"type": "complete"},
      "schedule": {"kind": "round-robin", "seed": 0},
      "initial_state": "all-coop-consensus",
      "run": {"max_steps": 1000000, "fixed_point_tol": 1e-10}
    }

Weights may be scalars (shared by all players) or length-n lists. "lambda"
(accepted spelling: "lam") defaults to 1 - alpha - beta per player. The
optional "sweep" section supplies the grid for the sweep command:
{"r": [...], "alpha": [...], "beta": [...], "trials": 20}.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import RevisionSchedule, _check_tolerance, make_schedule
from .model import ModelParams, Network, SystemState
from . import networks


class ConfigError(ValueError):
    """A configuration file failed to parse or violated a model invariant."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully validated experiment: every invariant already checked at load."""

    params: ModelParams
    network: Network
    schedule: RevisionSchedule
    initial_state: SystemState
    max_steps: int
    fixed_point_tol: float
    sweep_grid: dict | None
    sweep_trials: int


#: The default of a key that must be given.
_REQUIRED = object()


def _is_number(value) -> bool:
    """A JSON number that fits a float; a bool or a string is not one."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def _is_integer(value) -> bool:
    return _is_number(value) and float(value).is_integer()


def _numbers(values, name: str, n: int | None = None) -> list[float]:
    """A JSON list of numbers as floats; ``n``, if given, is its required length."""
    if not (isinstance(values, list) and all(map(_is_number, values))):
        raise ConfigError(f"{name} must be a list of numbers")
    if n is not None and len(values) != n:
        raise ConfigError(f"{name} must have {n} entries, got {len(values)}")
    return [float(v) for v in values]


class _Section:
    """One JSON object of the config, read key by key.

    Every read records its key, so the keys a section accepts are the ones
    its code asks for: ``done`` refuses the rest. The typed reads decide how
    a JSON value becomes a number, an integer or a flag.
    """

    def __init__(self, raw, where: str):
        if not isinstance(raw, dict):
            raise ConfigError(f"{where} must be an object")
        self.raw, self.prefix, self.asked = raw, f"{where}." if where else "", set()

    def get(self, key: str, default=_REQUIRED):
        self.asked.add(key)
        if key in self.raw:
            return self.raw[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self.prefix}{key} is required")
        return default

    def _typed(self, key: str, default, is_type, type_name: str):
        value = self.get(key, default)
        if not is_type(value):
            raise ConfigError(f"{self.prefix}{key} must be {type_name}, got {value!r}")
        return value

    def number(self, key: str, default=_REQUIRED) -> float:
        return float(self._typed(key, default, _is_number, "a number"))

    def integer(self, key: str, default, minimum: int) -> int:
        """A JSON integer or an integral float such as 4.0; 2.5 is refused, not truncated."""
        value = int(self._typed(key, default, _is_integer, "an integer"))
        if value < minimum:
            raise ConfigError(f"{self.prefix}{key} must be >= {minimum}, got {value}")
        return value

    def flag(self, key: str, default: bool) -> bool:
        return self._typed(key, default, lambda value: type(value) is bool, "true or false")

    def text(self, key: str, default=_REQUIRED) -> str:
        return self._typed(key, default, lambda value: type(value) is str, "a string")

    def done(self) -> None:
        """Refuse a key that nothing read, which would otherwise fall back silently."""
        unknown = sorted(set(self.raw) - self.asked)
        if unknown:
            known = ", ".join(sorted(self.asked))
            raise ConfigError(f"unknown key {self.prefix}{unknown[0]}; use {known}")


def _vector(section: _Section, key: str, n: int, default=_REQUIRED, alias: str | None = None):
    """A per-player weight: one number for every player or a list of n numbers."""
    if alias in section.raw and key not in section.raw:
        key = alias
    value = section.get(key, default)
    if isinstance(value, np.ndarray):  # the caller's default
        return value
    if _is_number(value):
        return np.full(n, float(value))
    if isinstance(value, list):
        return np.array(_numbers(value, f"params.{key}", n))
    raise ConfigError(f"params.{key} must be a number or a list of {n} numbers")


def _build_params(raw) -> ModelParams:
    section = _Section(raw, "params")
    n = section.integer("n", _REQUIRED, 2)
    r = section.number("r")
    alpha = _vector(section, "alpha", n)
    beta = _vector(section, "beta", n)
    lam = _vector(section, "lambda", n, 1.0 - alpha - beta, alias="lam")
    gamma = _vector(section, "gamma", n, np.zeros(n))
    prejudice = _vector(section, "prejudice", n, np.full(n, 0.5), alias="u")
    section.done()
    try:
        return ModelParams(n=n, r=r, alpha=alpha, beta=beta, lam=lam, gamma=gamma, prejudice=prejudice)
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from None


def _build_network(raw, n: int, base_dir: str) -> Network:
    section = _Section(raw, "network")
    kind = section.get("type")
    try:
        if kind == "complete":
            build = partial(networks.complete_network, n)
        elif kind == "ring":
            build = partial(networks.ring_network, n)
        elif kind == "grid":
            rows, cols = (section.integer(key, _REQUIRED, 1) for key in ("rows", "cols"))
            if rows * cols != n:
                raise ConfigError(
                    f"grid network is {rows}x{cols} = {rows * cols} nodes but params.n = {n}"
                )
            build = partial(networks.grid_network, rows, cols)
        elif kind in ("random", "random-symmetric"):
            p, seed = section.number("edge_probability", 0.5), section.integer("seed", 0, 0)
            if kind == "random":
                irreducible = section.flag("require_irreducible", True)
                build = partial(networks.random_network, n, p, seed, require_irreducible=irreducible)
            else:
                build = partial(networks.random_symmetric_network, n, p, seed)
        elif kind == "inline":
            matrix = section.get("matrix")
            if not isinstance(matrix, list):
                raise ConfigError("network.matrix must be a list of rows")
            W = np.array([_numbers(row, "network.matrix rows") for row in matrix])
            build = partial(Network.from_matrix, W, normalise=section.flag("normalise", False))
        elif kind == "file":
            # an absolute path replaces base_dir
            path = os.path.join(base_dir, section.text("path"))
            build = partial(
                networks.load_network, path, format=section.text("format", "edge-list"),
                normalise=section.flag("normalise", False),
            )
        else:
            raise ConfigError(
                f"unknown network type {kind!r}; use complete, ring, grid, random, "
                f"random-symmetric, inline, or file"
            )
        section.done()
        net = build()
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"network: {exc}") from None
    if net.n != n:
        raise ConfigError(f"network has {net.n} nodes but params.n = {n}")
    return net


def _build_schedule(raw, n: int, seed_override: int | None) -> RevisionSchedule:
    section = _Section({} if raw is None else raw, "schedule")
    # read even when overridden, so a bad seed is refused either way
    seed = section.integer("seed", 0, 0)
    kind = section.get("kind", "round-robin")
    section.done()
    try:
        return make_schedule(kind, n, seed=seed if seed_override is None else seed_override)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_initial(raw, n: int, seed_override: int | None) -> SystemState:
    if raw is None:
        raw = "all-defect-consensus"
    if isinstance(raw, str):
        if raw == "all-defect-consensus":
            return SystemState.all_defection(n)
        if raw == "all-coop-consensus":
            return SystemState.all_cooperation(n)
        raise ConfigError(
            f"unknown initial_state preset {raw!r}; use all-defect-consensus, "
            f"all-coop-consensus, or an object"
        )
    if not isinstance(raw, dict):
        raise ConfigError("initial_state must be a preset name or an object")
    section = _Section(raw, "initial_state")
    preset = section.get("preset", None)
    if preset == "random":
        seed = section.integer("seed", 0, 0)
        section.done()
        rng = np.random.default_rng(seed if seed_override is None else seed_override)
        return SystemState(rng.integers(0, 2, size=n).astype(np.int64), rng.random(n))
    x, y = section.get("x", None), section.get("y", None)
    if preset is not None or x is None or y is None:
        raise ConfigError(
            'initial_state object needs either {"preset": "random", "seed": k} '
            'or explicit "x" and "y" vectors'
        )
    # read as floats so SystemState refuses a fractional action
    x, y = np.array(_numbers(x, "initial_state.x", n)), np.array(_numbers(y, "initial_state.y", n))
    section.done()
    try:
        return SystemState(x, y)
    except ValueError as exc:
        raise ConfigError(f"initial_state: {exc}") from None


def load_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    """Load and fully validate an experiment configuration file.

    ``seed_override`` replaces every seed in the document (schedule and random
    initial state), which is what the CLI's --seed flag does.
    """
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    if "params" not in raw:
        raise ConfigError(f"{path}: missing params section")
    doc = _Section(raw, "")
    params_raw, network_raw = doc.get("params"), doc.get("network", {"type": "complete"})
    schedule_raw, initial_raw = doc.get("schedule", None), doc.get("initial_state", None)
    run = _Section(doc.get("run", {}), "run")
    sweep = _Section(doc.get("sweep"), "sweep") if "sweep" in raw else None
    doc.done()
    if seed_override is not None and seed_override < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed_override}")

    params = _build_params(params_raw)
    base_dir = os.path.dirname(os.path.abspath(path))
    network = _build_network(network_raw, params.n, base_dir)
    schedule = _build_schedule(schedule_raw, params.n, seed_override)
    initial = _build_initial(initial_raw, params.n, seed_override)

    max_steps = run.integer("max_steps", 1_000_000, 1)
    fixed_point_tol = run.number("fixed_point_tol", 1e-10)
    run.done()
    try:
        _check_tolerance(fixed_point_tol, "run.fixed_point_tol")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    sweep_grid, sweep_trials = None, 20
    if sweep is not None:
        sweep_grid = {axis: _numbers(sweep.get(axis), f"sweep.{axis}") for axis in ("r", "alpha", "beta")}
        sweep_trials = sweep.integer("trials", 20, 1)
        sweep.done()

    return ExperimentConfig(
        params=params, network=network, schedule=schedule, initial_state=initial,
        max_steps=max_steps, fixed_point_tol=fixed_point_tol,
        sweep_grid=sweep_grid, sweep_trials=sweep_trials,
    )
