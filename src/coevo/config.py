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
from dataclasses import dataclass

import numpy as np

from .dynamics import RevisionSchedule, _check_tolerance, make_schedule
from .model import ModelParams, Network, SystemState
from . import networks


class ConfigError(ValueError):
    """A configuration file failed to parse or violated a model invariant."""


#: Network type -> the keys besides "type" that it reads.
_NETWORK_KEYS = {
    "complete": (), "ring": (), "grid": ("rows", "cols"),
    "random": ("edge_probability", "seed", "require_irreducible"),
    "random-symmetric": ("edge_probability", "seed"),
    "inline": ("matrix", "normalise"), "file": ("path", "format", "normalise"),
}


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


def _numbers(values, name: str) -> list[float]:
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a list of numbers") from None


def _at_least(value: int, minimum: int, field: str) -> int:
    if value < minimum:
        raise ConfigError(f"{field} must be >= {minimum}, got {value}")
    return value


def _whole(value, field: str) -> int:
    """``int(value)``, refusing a fraction such as 2.5 instead of truncating it."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _integer(section: dict, key: str, default, where: str, minimum: int) -> int:
    raw = section.get(key, default)
    try:
        value = _whole(raw, f"{where}.{key}")
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}.{key} must be an integer, got {raw!r}") from None
    return _at_least(value, minimum, f"{where}.{key}")


def _known_keys(section: dict, keys, prefix: str) -> None:
    """Reject a key that nothing reads, which would otherwise fall back silently."""
    unknown = sorted(set(section) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key {prefix}{unknown[0]}; use {', '.join(sorted(keys))}")


def _vector(section: dict, key: str, n: int, default=None, alias: str | None = None):
    present = key in section or (alias is not None and alias in section)
    if not present:
        if default is None:
            raise ConfigError(f"params.{key} is required")
        value = default
    else:
        value = section[key] if key in section else section[alias]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return np.full(n, float(value))
    if isinstance(value, list):
        if len(value) != n:
            raise ConfigError(f"params.{key} must have {n} entries, got {len(value)}")
        return np.array(_numbers(value, f"params.{key}"))
    raise ConfigError(f"params.{key} must be a number or a list of {n} numbers")


def _build_params(section) -> ModelParams:
    if not isinstance(section, dict):
        raise ConfigError("params must be an object")
    keys = ("n", "r", "alpha", "beta", "lambda", "lam", "gamma", "prejudice", "u")
    _known_keys(section, keys, "params.")
    for key in ("n", "r"):
        if key not in section:
            raise ConfigError(f"params.{key} is required")
    n = _integer(section, "n", None, "params", 2)
    try:
        r = float(section["r"])
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("params.r must be a number") from None
    alpha = _vector(section, "alpha", n)
    beta = _vector(section, "beta", n)
    if "lambda" in section or "lam" in section:
        lam = _vector(section, "lambda", n, alias="lam")
    else:
        lam = 1.0 - alpha - beta
    gamma = _vector(section, "gamma", n, default=0.0)
    prejudice = _vector(section, "prejudice", n, default=0.5, alias="u")
    try:
        return ModelParams(
            n=n, r=r, alpha=alpha, beta=beta, lam=lam, gamma=gamma, prejudice=prejudice
        )
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from None


def _build_network(section, n: int, base_dir: str) -> Network:
    if not isinstance(section, dict) or "type" not in section:
        raise ConfigError('network must be an object with a "type" field')
    kind = section["type"]
    if not isinstance(kind, str) or kind not in _NETWORK_KEYS:
        *kinds, last = _NETWORK_KEYS
        raise ConfigError(f"unknown network type {kind!r}; use {', '.join(kinds)}, or {last}")
    _known_keys(section, ("type", *_NETWORK_KEYS[kind]), "network.")
    try:
        if kind == "complete":
            return networks.complete_network(n)
        if kind == "ring":
            return networks.ring_network(n)
        if kind == "grid":
            rows = _whole(section.get("rows", 0), "network.rows")
            cols = _whole(section.get("cols", 0), "network.cols")
            if rows * cols != n:
                raise ConfigError(
                    f"grid network is {rows}x{cols} = {rows * cols} nodes "
                    f"but params.n = {n}"
                )
            return networks.grid_network(rows, cols)
        if kind in ("random", "random-symmetric"):
            p = float(section.get("edge_probability", 0.5))
            seed = _at_least(_whole(section.get("seed", 0), "network.seed"), 0, "network.seed")
            if kind == "random-symmetric":
                return networks.random_symmetric_network(n, p, seed)
            irreducible = bool(section.get("require_irreducible", True))
            return networks.random_network(n, p, seed, require_irreducible=irreducible)
        if kind == "inline":
            if "matrix" not in section:
                raise ConfigError("inline network needs a matrix field")
            net = Network.from_matrix(
                np.array(section["matrix"], dtype=float),
                normalise=bool(section.get("normalise", False)),
            )
        else:
            if "path" not in section:
                raise ConfigError("file network needs a path field")
            path = section["path"]
            if not os.path.isabs(path):
                path = os.path.join(base_dir, path)
            net = networks.load_network(
                path,
                format=section.get("format", "edge-list"),
                normalise=bool(section.get("normalise", False)),
            )
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"network: {exc}") from None
    if net.n != n:
        raise ConfigError(f"network has {net.n} nodes but params.n = {n}")
    return net


def _build_schedule(section, n: int, seed_override: int | None) -> RevisionSchedule:
    section = section if section is not None else {}
    if not isinstance(section, dict):
        raise ConfigError("schedule must be an object")
    _known_keys(section, ("kind", "seed"), "schedule.")
    seed = _integer(section, "seed", 0, "schedule", 0) if seed_override is None else seed_override
    try:
        return make_schedule(section.get("kind", "round-robin"), n, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _build_initial(section, n: int, seed_override: int | None) -> SystemState:
    if section is None:
        section = "all-defect-consensus"
    if isinstance(section, str):
        if section == "all-defect-consensus":
            return SystemState.all_defection(n)
        if section == "all-coop-consensus":
            return SystemState.all_cooperation(n)
        raise ConfigError(
            f"unknown initial_state preset {section!r}; use all-defect-consensus, "
            f"all-coop-consensus, or an object"
        )
    if not isinstance(section, dict):
        raise ConfigError("initial_state must be a preset name or an object")
    _known_keys(section, ("preset", "seed", "x", "y"), "initial_state.")
    if section.get("preset") == "random":
        seed = _integer(section, "seed", 0, "initial_state", 0) if seed_override is None else seed_override
        rng = np.random.default_rng(seed)
        return SystemState(rng.integers(0, 2, size=n).astype(np.int64), rng.random(n))
    if "x" in section and "y" in section:
        try:
            # read as floats so SystemState refuses a fractional action
            return SystemState(
                np.array(section["x"], dtype=float),
                np.array(section["y"], dtype=float),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"initial_state: {exc}") from None
    raise ConfigError(
        'initial_state object needs either {"preset": "random", "seed": k} '
        'or explicit "x" and "y" vectors'
    )


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
    _known_keys(raw, ("params", "network", "schedule", "initial_state", "run", "sweep"), "")
    if seed_override is not None:
        _at_least(seed_override, 0, "--seed")

    params = _build_params(raw["params"])
    base_dir = os.path.dirname(os.path.abspath(path))
    network = _build_network(raw.get("network", {"type": "complete"}), params.n, base_dir)
    schedule = _build_schedule(raw.get("schedule"), params.n, seed_override)
    initial = _build_initial(raw.get("initial_state"), params.n, seed_override)

    run_section = raw.get("run", {})
    if not isinstance(run_section, dict):
        raise ConfigError("run must be an object")
    _known_keys(run_section, ("max_steps", "fixed_point_tol"), "run.")
    max_steps = _integer(run_section, "max_steps", 1_000_000, "run", 1)
    try:
        fixed_point_tol = float(run_section.get("fixed_point_tol", 1e-10))
    except (TypeError, ValueError, OverflowError):
        raise ConfigError("run.fixed_point_tol must be a number") from None
    try:
        _check_tolerance(fixed_point_tol, "run.fixed_point_tol")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    sweep_grid = None
    sweep_trials = 20
    if "sweep" in raw:
        sweep_section = raw["sweep"]
        if not isinstance(sweep_section, dict):
            raise ConfigError("sweep must be an object")
        # every axis but trials goes through, so sweep() rejects unknown ones
        sweep_grid = {
            axis: _numbers(values, f"sweep.{axis}")
            for axis, values in sweep_section.items()
            if axis != "trials"
        }
        sweep_trials = _integer(sweep_section, "trials", 20, "sweep", 1)

    return ExperimentConfig(
        params=params,
        network=network,
        schedule=schedule,
        initial_state=initial,
        max_steps=max_steps,
        fixed_point_tol=fixed_point_tol,
        sweep_grid=sweep_grid,
        sweep_trials=sweep_trials,
    )
