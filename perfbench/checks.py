"""Output checks, run untimed after the timed calls.

Digests catch any change in the bytes; the semantic checks below say what
the bytes must mean, so they still hold on seeds that have no reference
digest.
"""

from __future__ import annotations

import hashlib
import itertools
import json

from coevo import SystemState, is_fixed_point, load_config, load_trajectory, verify_nash

from workloads import (
    DEFAULT_SEED,
    EQUILIBRIUM_COUNTS,
    EQUILIBRIUM_COUNTS_DEFAULT_SEED,
    REFERENCE_DIGESTS,
)


def file_digest(path: str) -> str | None:
    """SHA-256 of a file's bytes, or None when the file is missing."""
    try:
        with open(path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()
    except FileNotFoundError:
        return None


def reference_digest(workload: str, call, seed: int, smoke: bool) -> str | None:
    """The recorded digest for this call, when one applies to this seed and size."""
    if smoke or seed != DEFAULT_SEED:
        return None
    return REFERENCE_DIGESTS[f"{workload}/{call.name}"]


def semantic_errors(call, runs, seed: int, smoke: bool) -> list[str]:
    """What is wrong with the output file of ``call`` (empty when nothing is).

    ``runs`` are the (trajectory, params) pairs the replay of the same call
    produced.
    """
    if call.command == "simulate":
        return _simulate_errors(call, runs)
    if call.command == "sweep":
        return _sweep_errors(call)
    return _enumerate_errors(call, seed, smoke)


def _simulate_errors(call, runs) -> list[str]:
    parsed = load_trajectory(call.out_path)
    (traj, _params), = runs
    errors = []
    if len(parsed) != len(traj):
        errors.append(f"{call.name}: file has {len(parsed)} states, the run {len(traj)}")
    if not parsed.final == traj.final:
        errors.append(f"{call.name}: final row differs from the run's final state")
    return errors


def _sweep_errors(call) -> list[str]:
    with open(call.out_path, encoding="utf-8") as f:
        doc = json.load(f)
    grid = call.config["sweep"]
    want_cells = len(list(itertools.product(grid["r"], grid["alpha"], grid["beta"])))
    errors = []
    if len(doc["cells"]) != want_cells or doc["invalid_cells"]:
        errors.append(f"{call.name}: {len(doc['cells'])} cells, want {want_cells} and none invalid")
    trials = sum(c["trials"] for c in doc["cells"])
    if trials != want_cells * grid["trials"]:
        errors.append(f"{call.name}: {trials} trials, want {want_cells * grid['trials']}")
    for c in doc["cells"]:
        total = sum(c["outcome_frequencies"].values())
        if abs(total - 1.0) > 1e-12:
            errors.append(f"{call.name}: cell r={c['r']} alpha={c['alpha']} frequencies sum to {total!r}")
    return errors


def _enumerate_errors(call, seed: int, smoke: bool) -> list[str]:
    cfg = load_config(call.config_path)
    with open(call.out_path, encoding="utf-8") as f:
        doc = json.load(f)
    errors = []
    states = [SystemState(e["x"], e["y"]) for e in doc["equilibria"]]
    for k, state in enumerate(states):
        if not verify_nash(state, cfg.params, cfg.network).is_nash:
            errors.append(f"{call.name}: equilibrium {k} fails verify_nash")
        if not is_fixed_point(state, cfg.params, cfg.network):
            errors.append(f"{call.name}: equilibrium {k} is not a fixed point")
    if not any(int(s.x.sum()) == 0 for s in states):
        errors.append(f"{call.name}: all-defection is missing from the equilibria")
    want = None if smoke else EQUILIBRIUM_COUNTS.get(call.name)
    if want is None and not smoke and seed == DEFAULT_SEED:
        want = EQUILIBRIUM_COUNTS_DEFAULT_SEED.get(call.name)
    if want is not None and len(states) != want:
        errors.append(f"{call.name}: {len(states)} equilibria, want {want}")
    return errors
