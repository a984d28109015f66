"""Deterministic file output and parsing for trajectories and reports.

Reals are printed with 17 significant digits, which round-trips IEEE doubles
exactly; all writes go through a temp file plus rename so a crash never
leaves a partial file. Player indices are 1-based in every external format.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .dynamics import Trajectory
from .equilibria import ConditionReport, EquilibriumReport, NashCheck, SweepTable
from .model import BestResponseSet, SystemState


def format_real(v: float) -> str:
    """Shortest-faithful decimal: 17 significant digits round-trip a double."""
    return "%.17g" % float(v)


def atomic_write(path: str, text: str) -> None:
    """Write the full text, then rename into place; readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _trajectory_header(n: int) -> list[str]:
    return (
        ["t", "active"]
        + [f"x_{i}" for i in range(1, n + 1)]
        + [f"y_{i}" for i in range(1, n + 1)]
        + ["potential"]
    )


def render_trajectory_csv(traj: Trajectory) -> str:
    """CSV rows: t, active (semicolon-joined 1-based ids of the revision that
    produced this row's state; empty at t=0), x_1..x_n, y_1..y_n, potential.

    An empty trajectory renders as the header line alone. Consecutive rows
    differ in few cells, so each row re-formats only the cells whose value
    changed since the row before; opinions are compared by their bits, which
    tells -0.0 from 0.0.
    """
    X, Y, pots = traj.x, traj.y, traj.potentials
    rows, n = X.shape
    lines = [",".join(_trajectory_header(n))]
    if rows:
        y_bits = np.ascontiguousarray(Y).view(np.int64)
        cells = (
            ["0", ""]
            + [str(int(v)) for v in X[0]]
            + [format_real(v) for v in Y[0]]
            + ["" if pots is None else format_real(pots[0])]
        )
        lines.append(",".join(cells))
    for t in range(1, rows):
        cells[0] = str(t)
        cells[1] = ";".join(str(i + 1) for i in traj.active_sets[t - 1])
        for i in np.flatnonzero(X[t] != X[t - 1]).tolist():
            cells[2 + i] = str(int(X[t, i]))
        for i in np.flatnonzero(y_bits[t] != y_bits[t - 1]).tolist():
            cells[2 + n + i] = format_real(Y[t, i])
        if pots is not None:
            cells[-1] = format_real(pots[t])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_trajectory_jsonl(traj: Trajectory) -> str:
    """One JSON object per recorded state, same fields as the CSV columns."""
    out = []
    for t in range(len(traj)):
        active = [] if t == 0 else [i + 1 for i in traj.active_sets[t - 1]]
        obj = {
            "t": t,
            "active": active,
            "x": traj.x[t].tolist(),
            "y": traj.y[t].tolist(),
            "potential": None if traj.potentials is None else float(traj.potentials[t]),
        }
        out.append(json.dumps(obj, sort_keys=True))
    return "\n".join(out) + "\n"


def _trajectory_format(format: str):
    if format not in TRAJECTORY_FORMATS:
        raise ValueError(f"unknown trajectory format {format!r}; use one of {list(TRAJECTORY_FORMATS)}")
    return TRAJECTORY_FORMATS[format]


def emit_trajectory(traj: Trajectory, path: str, format: str = "csv") -> None:
    """Write a trajectory to ``path`` in one of the ``TRAJECTORY_FORMATS``."""
    render, _ = _trajectory_format(format)
    atomic_write(path, render(traj))


def load_trajectory(path: str, format: str = "csv") -> Trajectory:
    """Parse a trajectory file back into states, active sets, and potentials.

    Every row must hold a valid state: actions 0 or 1, opinions in [0, 1].
    Files do not carry the in-memory stop reason, so the result's stop_reason
    is "unknown".
    """
    _, parse = _trajectory_format(format)
    X, Y, linenos, actives, pots = parse(path)
    _check_rows(path, X, Y, linenos)
    return Trajectory(
        x=X,
        y=Y,
        active_sets=tuple(actives),
        potentials=pots,
        stop_reason="unknown",
    )


def _check_rows(path: str, X: np.ndarray, Y: np.ndarray, linenos: list[int]) -> None:
    """Reject the first row that is not a valid state, naming its line and player."""
    checks = (
        (X, (X != 0) & (X != 1), "action must be 0 or 1"),
        (Y, ~((Y >= 0.0) & (Y <= 1.0)), "opinion must lie in [0, 1]"),
    )
    for values, bad, rule in checks:
        if bad.any():
            row, player = np.unravel_index(int(np.argmax(bad)), bad.shape)
            raise ValueError(
                f"{path}:{linenos[row]}: player {player + 1}: {rule}, "
                f"got {values[row, player].item()!r}"
            )


def _parse_active(cell: str) -> tuple[int, ...]:
    if not cell:
        return ()
    return tuple(int(part) - 1 for part in cell.split(";"))


def _parse_trajectory_csv(path: str):
    with open(path, encoding="utf-8") as f:
        numbered = [
            (lineno, line.rstrip("\n")) for lineno, line in enumerate(f, start=1) if line.strip()
        ]
    if not numbered:
        raise ValueError(f"{path}: empty trajectory file")
    header = numbered[0][1].split(",")
    if (
        len(header) < 3
        or header[:2] != ["t", "active"]
        or header[-1] != "potential"
        or (len(header) - 3) % 2 != 0
    ):
        raise ValueError(f"{path}: unrecognised trajectory header")
    n = (len(header) - 3) // 2
    rows = len(numbered) - 1
    X = np.empty((rows, n), dtype=np.int64)
    Y = np.empty((rows, n))
    linenos: list[int] = []
    actives: list[tuple[int, ...]] = []
    pots: list[float] | None = None
    for t, (lineno, line) in enumerate(numbered[1:]):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        if int(cells[0]) != t:
            raise ValueError(f"{path}:{lineno}: time index {cells[0]} out of order")
        if t > 0:
            actives.append(_parse_active(cells[1]))
        X[t] = [int(c) for c in cells[2 : 2 + n]]
        Y[t] = [float(c) for c in cells[2 + n : 2 + 2 * n]]
        linenos.append(lineno)
        pot_cell = cells[-1]
        if t == 0:
            pots = [] if pot_cell != "" else None
        if pots is not None:
            if pot_cell == "":
                raise ValueError(f"{path}:{lineno}: missing potential value")
            pots.append(float(pot_cell))
    return X, Y, linenos, actives, pots


def _parse_trajectory_jsonl(path: str):
    xs: list[list] = []
    ys: list[list] = []
    linenos: list[int] = []
    actives: list[tuple[int, ...]] = []
    pots: list[float] | None = None
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            t = int(obj["t"])
            if t != len(xs):
                raise ValueError(f"{path}:{lineno}: time index {t} out of order")
            if t > 0:
                actives.append(tuple(int(i) - 1 for i in obj["active"]))
            n = len(xs[0]) if xs else len(obj["x"])
            if len(obj["x"]) != n or len(obj["y"]) != n:
                raise ValueError(
                    f"{path}:{lineno}: expected {n} actions and {n} opinions, "
                    f"got {len(obj['x'])} and {len(obj['y'])}"
                )
            xs.append(obj["x"])
            ys.append(obj["y"])
            linenos.append(lineno)
            if t == 0:
                pots = [] if obj.get("potential") is not None else None
            if pots is not None:
                if obj.get("potential") is None:
                    raise ValueError(f"{path}:{lineno}: missing potential value")
                pots.append(float(obj["potential"]))
    n = len(xs[0]) if xs else 0
    X = np.array(xs, dtype=np.int64).reshape(len(xs), n)
    Y = np.array(ys, dtype=float).reshape(len(ys), n)
    return X, Y, linenos, actives, pots


#: Trajectory file format name -> (render to text, parse a file).
TRAJECTORY_FORMATS = {
    "csv": (render_trajectory_csv, _parse_trajectory_csv),
    "json-lines": (render_trajectory_jsonl, _parse_trajectory_jsonl),
}


def write_json(obj, path: str) -> None:
    """Canonical JSON to disk: sorted keys, 2-space indent, atomic replace."""
    atomic_write(path, render_json(obj))


def render_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def state_to_jsonable(state: SystemState) -> dict:
    return {"x": [int(v) for v in state.x], "y": [float(v) for v in state.y]}


def condition_report_to_jsonable(report: ConditionReport) -> dict:
    return {
        "condition_id": report.condition_id,
        "all_hold": report.all_hold,
        "per_player": [
            {"player": i + 1, "lhs": lhs, "rhs": rhs, "holds": holds}
            for i, (lhs, rhs, holds) in enumerate(report.per_player)
        ],
    }


def equilibrium_report_to_jsonable(report: EquilibriumReport) -> dict:
    def entry(e):
        return {
            **state_to_jsonable(e.state),
            "class": {
                "action_consensus": e.state_class.action_consensus,
                "opinion_consensus": e.state_class.opinion_consensus,
                "full_class": e.state_class.full_class,
            },
            "residual": e.residual,
        }

    return {
        "equilibria": [entry(e) for e in report.equilibria],
        "boundary_equilibria": [entry(e) for e in report.boundary_equilibria],
        "action_profiles_scanned": report.action_profiles_scanned,
        "max_residual": report.solver_residuals,
    }


def nash_check_to_jsonable(check: NashCheck) -> dict:
    out: dict = {"is_nash": check.is_nash}
    if not check.is_nash:
        out["deviating_player"] = check.deviating_player + 1
        action, opinion = check.improving_response
        out["improving_response"] = {"action": int(action), "opinion": float(opinion)}
    return out


def best_response_to_jsonable(br: BestResponseSet) -> dict:
    return {
        "discriminant": float(br.discriminant_value),
        "entries": [
            {"action": int(a), "opinion": float(y)} for a, y in br.entries
        ],
    }


def sweep_table_to_jsonable(table: SweepTable) -> dict:
    return {
        "schedule_kind": table.schedule_kind,
        "seed": table.seed,
        "trials_per_cell": table.trials_per_cell,
        "cells": [
            {
                "r": c.r,
                "alpha": c.alpha,
                "beta": c.beta,
                "lam": c.lam,
                "all_defection_unique": c.all_defection_unique,
                "all_cooperation_exists": c.all_cooperation_exists,
                "equilibrium_count": c.equilibrium_count,
                "boundary_count": c.boundary_count,
                "outcome_frequencies": c.outcome_frequencies,
                "trials": c.trials,
            }
            for c in table.cells
        ],
        "invalid_cells": [
            {"cell": spec, "reason": reason} for spec, reason in table.invalid_cells
        ],
    }
