"""Deterministic file output and parsing for trajectories and reports.

Reals are printed with 17 significant digits, which round-trips IEEE doubles
exactly; all writes go through a temp file plus rename so a crash never
leaves a partial file. Player indices are 1-based in every external format.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from itertools import compress
from operator import ne

import numpy as np

from .dynamics import Trajectory
from .equilibria import ConditionReport, EquilibriumReport, NashCheck, SweepTable
from .model import BestResponseSet, SystemState, _state_fault


def format_real(v: float) -> str:
    """Shortest-faithful decimal: 17 significant digits round-trip a double."""
    return "%.17g" % float(v)


#: Characters handed to the encoder at a time by ``write_sliced``.
_WRITE_SLICE = 1 << 20


def write_sliced(f, text: str) -> None:
    """Write ``text`` to the text stream ``f`` in slices of ``_WRITE_SLICE``
    characters, so only one slice at a time is held encoded, never the whole text."""
    for start in range(0, len(text), _WRITE_SLICE):
        f.write(text[start : start + _WRITE_SLICE])


def atomic_write(path: str, text: str) -> None:
    """Write the full text, then rename into place; readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            write_sliced(f, text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _row_cells(traj: Trajectory, opinion_text):
    """Each row's cells in the CSV columns ``[t, active, x_1..x_n, y_1..y_n,
    potential]``, as one list updated in place; the caller fills t, active and
    potential. Only the actions and opinions whose bits changed since the row
    before are re-formatted, with ``str`` and ``opinion_text``; bits tell -0.0
    from 0.0. One ``np.nonzero`` per kind of cell finds the changes of all rows,
    and ``searchsorted`` locates each row's share.
    """
    X, Y = traj.x, traj.y
    rows, n = X.shape
    if not rows:
        return
    cells = ["", "", *map(str, X[0].tolist()), *map(opinion_text, Y[0].tolist()), ""]
    yield cells
    # per kind of cell: the column and value of every changed cell in row
    # order, and where each row's changes start
    changes = []
    y_bits = np.ascontiguousarray(Y).view(np.int64)
    for values, bits, text, first_column in ((X, X, str, 2), (Y, y_bits, opinion_text, 2 + n)):
        row, player = np.nonzero(bits[1:] != bits[:-1])
        changes.append((
            (player + first_column).tolist(),
            values[1:][row, player].tolist(),
            text,
            np.searchsorted(row, np.arange(rows)),
        ))
    for t in range(1, rows):
        for cols, vals, text, starts in changes:
            for k in range(starts[t - 1], starts[t]):
                cells[cols[k]] = text(vals[k])
        yield cells


def render_trajectory_csv(traj: Trajectory) -> str:
    """CSV rows: t, active (semicolon-joined 1-based ids of the revision that
    produced this row's state; empty at t=0), x_1..x_n, y_1..y_n, potential.
    An empty trajectory renders as the header line alone."""
    pots = traj.potentials
    ids = range(1, traj.x.shape[1] + 1)
    header = ["t", "active", *(f"x_{i}" for i in ids), *(f"y_{i}" for i in ids), "potential"]
    lines = [",".join(header)]
    for t, cells in enumerate(_row_cells(traj, format_real)):
        cells[0] = str(t)
        cells[1] = ";".join(str(i + 1) for i in traj.active_sets[t - 1]) if t else ""
        if pots is not None:
            cells[-1] = format_real(pots[t])
        lines.append(",".join(cells))
    # an empty last line ends the text with a newline without a second copy
    lines.append("")
    return "\n".join(lines)


def render_trajectory_jsonl(traj: Trajectory) -> str:
    """One JSON object per recorded state, same fields as the CSV columns, as
    ``json.dumps(row, sort_keys=True)`` prints it: every cell is printed by
    ``json.dumps``, so NaN, Infinity and -0.0 read the same."""
    pots = traj.potentials
    n = traj.x.shape[1]
    lines = []
    for t, cells in enumerate(_row_cells(traj, json.dumps)):
        active = ", ".join(str(i + 1) for i in traj.active_sets[t - 1]) if t else ""
        pot = "null" if pots is None else json.dumps(float(pots[t]))
        x, y = ", ".join(cells[2 : 2 + n]), ", ".join(cells[2 + n : -1])
        lines.append(f'{{"active": [{active}], "potential": {pot}, "t": {t}, "x": [{x}], "y": [{y}]}}')
    # the empty last entry ends the text with a newline in the one join; an
    # empty trajectory renders as a lone newline
    lines.append("")
    return "\n".join(lines) or "\n"


def format_entry(table: dict, kind: str, format: str):
    """The entry for ``format`` in a format table such as ``TRAJECTORY_FORMATS``."""
    if format not in table:
        raise ValueError(f"unknown {kind} format {format!r}; use {' or '.join(map(repr, table))}")
    return table[format]


def emit_trajectory(traj: Trajectory, path: str, format: str = "csv") -> None:
    """Write a trajectory to ``path`` in one of the ``TRAJECTORY_FORMATS``."""
    render, _ = format_entry(TRAJECTORY_FORMATS, "trajectory", format)
    atomic_write(path, render(traj))


def load_trajectory(path: str, format: str = "csv") -> Trajectory:
    """Parse a trajectory file back into states, active sets, and potentials.

    The file is read one line at a time. Every row must hold a valid state:
    actions 0 or 1, opinions in [0, 1]. A malformed cell or row raises a
    ValueError that starts with ``path:line`` and, for an action or opinion,
    names the player. Files do not carry the in-memory stop reason, so the
    result's stop_reason is "unknown".
    """
    _, decode = format_entry(TRAJECTORY_FORMATS, "trajectory", format)
    xs, ys, linenos, actives, pots = [], [], [], [], None
    with open(path, encoding="utf-8") as f:
        rows = decode(path, ((k, line) for k, line in enumerate(f, start=1) if line.strip()))
        n = next(rows)
        for lineno, t, active, x, y, pot in rows:
            where = f"{path}:{lineno}"
            n = len(x) if n is None else n
            if len(x) != n or len(y) != n:
                raise ValueError(
                    f"{where}: expected {n} actions and {n} opinions, got {len(x)} and {len(y)}"
                )
            if _read(int, t, where, "time index") != len(xs):
                raise ValueError(f"{where}: time index {t} out of order")
            if xs:
                actives.append(_read(lambda a: tuple(int(i) - 1 for i in a), active, where, "active ids"))
            else:
                pots = None if pot is None else []
            if pots is not None:
                if pot is None:
                    raise ValueError(f"{where}: missing potential value")
                pots.append(_read(float, pot, where, "potential"))
            xs.append(x)
            ys.append(y)
            linenos.append(lineno)
    # no dtype: an action too large for int64 stays an object for _state_fault
    X = np.array(xs).reshape(len(xs), n or 0)
    Y = np.array(ys, dtype=float).reshape(len(ys), n or 0)
    fault = _state_fault(X, Y)
    if fault is not None:
        raise ValueError(f"{path}:{linenos[fault[0][0]]}: {fault[1]}")
    return Trajectory(x=X, y=Y, active_sets=tuple(actives), potentials=pots, stop_reason="unknown")


def _read(convert, value, where: str, what: str):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where}: cannot read {what} {value!r}") from None


def _read_players(values: list, cells, players, convert, where: str, what: str) -> None:
    """Set ``values[i] = convert(cells[i])`` for each player index ``i``."""
    for i in players:
        try:
            values[i] = convert(cells[i])
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{where}: player {i + 1}: cannot read {what} {cells[i]!r}") from None


def _csv_rows(path: str, lines):
    """The header's player count, then the rows, decoded the way the renderer
    writes them: a cell whose text equals the same cell of the row before keeps
    that row's value, and only changed cells are converted. Equal text parses
    to equal bits, so this is exact whoever wrote the file."""
    first = next(lines, None)
    if first is None:
        raise ValueError(f"{path}: empty trajectory file")
    header = first[1].rstrip("\n").split(",")
    if header[:2] != ["t", "active"] or header[-1] != "potential" or len(header) % 2 == 0:
        raise ValueError(f"{path}: unrecognised trajectory header")
    n = (len(header) - 3) // 2
    yield n
    x, y = [0] * n, [0.0] * n
    x_before = y_before = [None] * n
    for lineno, line in lines:
        where = f"{path}:{lineno}"
        cells = line.rstrip("\n").split(",")
        if len(cells) != len(header):
            raise ValueError(f"{where}: expected {len(header)} columns, got {len(cells)}")
        x_text, y_text = cells[2 : 2 + n], cells[2 + n : -1]
        _read_players(x, x_text, compress(range(n), map(ne, x_text, x_before)), int, where, "action")
        _read_players(y, y_text, compress(range(n), map(ne, y_text, y_before)), float, where, "opinion")
        x_before, y_before = x_text, y_text
        active = cells[1].split(";") if cells[1] else ()
        yield lineno, cells[0], active, list(x), list(y), cells[-1] or None


def _jsonl_rows(path: str, lines):
    yield None
    for lineno, line in lines:
        where = f"{path}:{lineno}"
        try:
            obj = json.loads(line)
            t, x, y = obj["t"], obj["x"], obj["y"]
            if not (isinstance(x, list) and isinstance(y, list)):
                raise TypeError("x and y must be lists")
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{where}: not a trajectory row ({type(exc).__name__}: {exc})") from None
        _read_players(x, x, range(len(x)), _json_integer, where, "action")
        _read_players(y, y, range(len(y)), _json_number, where, "opinion")
        t, active = _read(_json_integer, t, where, "time index"), obj.get("active")
        if active is not None:
            _read(lambda ids: [_json_integer(i) for i in ids], active, where, "active ids")
        yield lineno, t, active, x, y, obj.get("potential")


def _json_integer(value) -> int:
    """A JSON integer; a fraction such as 0.7 or 1.0, a bool or a string is refused."""
    if type(value) is not int:
        raise TypeError(value)
    return value


def _json_number(value) -> float:
    """A JSON number; a bool or a string is refused."""
    if type(value) not in (int, float):
        raise TypeError(value)
    return float(value)


#: Trajectory file format name -> (render to text, rows). ``rows(path, lines)``
#: reads numbered non-blank lines and yields the header's player count (None
#: without a header), then ``(lineno, t, active, x, y, potential or None)``.
TRAJECTORY_FORMATS = {
    "csv": (render_trajectory_csv, _csv_rows),
    "json-lines": (render_trajectory_jsonl, _jsonl_rows),
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
        "cells": [dataclasses.asdict(c) for c in table.cells],
        "invalid_cells": [
            {"cell": spec, "reason": reason} for spec, reason in table.invalid_cells
        ],
    }
