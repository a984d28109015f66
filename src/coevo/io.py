"""Deterministic file output and parsing for trajectories and reports.

Reals are printed with 17 significant digits, which round-trips IEEE doubles
exactly; all writes go through a temp file plus rename so a crash never
leaves a partial file. Player indices are 1-based in every external format.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import compress, islice
from math import isfinite
from operator import ne

import numpy as np

from . import dynamics
from .dynamics import Trajectory
from .model import BestResponseSet, _state_fault


def format_real(v: float) -> str:
    """Shortest-faithful decimal: 17 significant digits round-trip a double."""
    return "%.17g" % float(v)


def atomic_write(path: str, text) -> None:
    """Write ``text``, a string or an iterable of strings written one at a time as
    each arrives, to a temporary file, then rename it into place; readers never
    see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: Cells per cached join of a row's text in ``trajectory_chunks``.
_GROUP = 16


def trajectory_chunks(blocks, n: int, format: str):
    """The text of ``blocks`` of one row or more, as the run loop
    (``dynamics._run_trials``) yields a recorded run's, in one of the
    ``TRAJECTORY_FORMATS``: one piece per block, the CSV header in the first.
    No blocks render as the header line alone, or a lone newline.

    A row's actions and its opinions are its two halves, each cut into groups
    of ``_GROUP`` cells. The text of each cell and each group is kept from the
    row before: only cells whose bits changed (so -0.0 is not 0.0) are
    re-formatted, and each group they touch is re-joined once per row; every row
    then joins its groups afresh. One ``np.flatnonzero`` finds a block's changes,
    one ``map`` formats its potentials, and a set's active ids are formatted once.
    """
    text, pot_text, (sep, id_sep, no_potential), line, _ = format_entry(TRAJECTORY_FORMATS, "trajectory", format)
    # the header waits for the first row, so a run that fails at once writes nothing
    header = ",".join(["t", "active", *(f"{v}_{i}" for v in "xy" for i in range(1, n + 1)), "potential"])
    lines = [header] if format == "csv" else []
    # the 2n cells' groups, the actions' in the first half
    groups = [slice(s, min(s + _GROUP, end)) for end in (n, 2 * n) for s in range(end - n, end, _GROUP)]
    half = len(groups) // 2
    id_texts, cells, t = {}, None, 0
    for X, Y, keys, pots in blocks:
        rows = len(X)
        y_bits = np.ascontiguousarray(Y).view(np.int64)
        if cells is None:
            cells = [*map(text, X[0].tolist() + Y[0].tolist())]
            joins = [sep.join(cells[g]) for g in groups]
            before = X[:1], y_bits[:1]  # row 0 is compared with itself
        # every changed cell in row order, actions first: its row, its column of
        # the 2n, its half and player, and its new value
        changed = np.hstack([v != np.concatenate((b, v[:-1])) for v, b in zip((X, y_bits), before)])
        row, col = np.divmod(np.flatnonzero(changed), 2 * n)
        side, player = np.divmod(col, n)
        values, on_x = np.empty(len(col), dtype=object), side == 0
        values[on_x] = X[row[on_x], player[on_x]].tolist()
        values[~on_x] = Y[row[~on_x], player[~on_x]].tolist()
        # the last change of a row in a group re-joins it; -1 where a later change of the row will
        group = player // _GROUP + side * half
        regroup = np.where(np.append((row[1:] != row[:-1]) | (group[1:] != group[:-1]), True), group, -1).tolist()
        id_texts.update((k, id_sep.join([str(i + 1) for i in k])) for k in set(keys).difference(id_texts))
        pot_texts = [no_potential] * rows if pots is None else [*map(pot_text, pots.tolist())]
        changes = zip(col.tolist(), values.tolist(), regroup)
        counts = np.bincount(row, minlength=rows).tolist()
        for active, pot, count in zip(map(id_texts.__getitem__, keys), pot_texts, counts):
            # formatted here, not ahead for the block: that was slower where every cell changes
            for c, v, g in islice(changes, count):
                cells[c] = text(v)
                if g >= 0:
                    joins[g] = sep.join(cells[groups[g]])
            lines.append(line(t, active, pot, sep.join(joins[:half]), sep.join(joins[half:])))
            t += 1
        before = X[-1:], y_bits[-1:]
        # an empty last line ends the text with a newline without a second copy
        lines.append("")
        yield "\n".join(lines)
        lines = []
    if cells is None:
        yield header + "\n" if format == "csv" else "\n"


def _csv_line(t, active, pot, x_text, y_text) -> str:
    # without players both halves are empty and have no columns
    return f"{t},{active},{x_text},{y_text},{pot}" if y_text else f"{t},{active},{pot}"


def _jsonl_line(t, active, pot, x_text, y_text) -> str:
    # the text of json.dumps(row, sort_keys=True): cells by repr, the potential by json.dumps
    return f'{{"active": [{active}], "potential": {pot}, "t": {t}, "x": [{x_text}], "y": [{y_text}]}}'


def _blocks(traj: Trajectory):
    """A trajectory as views of the blocks of rows that the run loop yields while
    it records, ``dynamics._block_rows(n)`` rows each, for ``trajectory_chunks``."""
    rows = dynamics._block_rows(traj.x.shape[1])
    keys, pots = ((), *traj.active_sets), traj.potentials
    for k in range(0, len(traj), rows):
        b = slice(k, k + rows)
        yield traj.x[b], traj.y[b], keys[b], None if pots is None else pots[b]


def render_trajectory_csv(traj: Trajectory) -> str:
    """CSV rows: t, active (semicolon-joined 1-based ids of the revision that
    produced this row's state; empty at t=0), x_1..x_n, y_1..y_n, potential.
    An empty trajectory renders as the header line alone."""
    return "".join(trajectory_chunks(_blocks(traj), traj.x.shape[1], "csv"))


def format_entry(table: dict, kind: str, format: str):
    """The entry for ``format`` in a format table such as ``TRAJECTORY_FORMATS``."""
    if format not in table:
        raise ValueError(f"unknown {kind} format {format!r}; use {' or '.join(map(repr, table))}")
    return table[format]


def emit_trajectory(traj: Trajectory, path: str, format: str = "csv") -> None:
    """Write a trajectory to ``path`` in one of the ``TRAJECTORY_FORMATS``, one
    block of rows at a time as ``simulate`` writes a run."""
    atomic_write(path, trajectory_chunks(_blocks(traj), traj.x.shape[1], format))


def load_trajectory(path: str, format: str = "csv") -> Trajectory:
    """Parse a trajectory file back into states, active sets, and potentials.

    The file is read one line at a time. Every row must hold a valid state:
    actions 0 or 1, opinions in [0, 1]; active ids lie in 1..n, and row 0 has
    none; a potential is on every row or on none. A malformed cell or row
    raises a ValueError that starts with ``path:line`` and, for an action or
    opinion, names the player.
    Files do not carry the in-memory stop reason, so the result's stop_reason
    is "unknown".
    """
    *_, decode = format_entry(TRAJECTORY_FORMATS, "trajectory", format)
    xs, ys, linenos, actives, shared, pots = [], [], [], [], {}, None
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
            if t != len(xs):
                raise ValueError(f"{where}: time index {t} out of order")
            if xs:
                # the ids are ints here, so equal sets can be one object,
                # checked once here and once by the Trajectory
                if active not in shared:
                    if not all(0 <= i < n for i in active):
                        ids = [i + 1 for i in active]
                        raise ValueError(f"{where}: active ids must lie in 1..{n}, got {ids}")
                    shared[active] = active
                actives.append(shared[active])
            elif active:
                # a render would drop it: row 0 follows no revision
                raise ValueError(f"{where}: row 0 has no active ids, got {[i + 1 for i in active]}")
            else:
                pots = None if pot is None else []
            # the first row decides whether every row has a potential or none does
            if (pot is None) != (pots is None):
                raise ValueError(f"{where}: {'missing' if pot is None else 'unexpected'} potential value")
            if pot is not None:
                pots.append(pot)
            xs.append(x)
            ys.append(y)
            linenos.append(lineno)
    # no dtype: an action too large for int64 stays an object for _state_fault
    X = np.array(xs).reshape(len(xs), n or 0)
    Y = np.array(ys, dtype=float).reshape(len(ys), n or 0)
    try:
        return Trajectory(x=X, y=Y, active_sets=tuple(actives), potentials=pots, stop_reason="unknown")
    except ValueError:
        # the ids and sizes were checked above, so only a state can be refused
        fault = _state_fault(X, Y)
        raise ValueError(f"{path}:{linenos[fault[0][0]]}: {fault[1]}") from None


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
        t = _read(int, cells[0], where, "time index")
        active = _read(_ids(int), cells[1].split(";") if cells[1] else [], where, "active ids")
        pot = _read(float, cells[-1], where, "potential") if cells[-1] else None
        yield lineno, t, active, list(x), list(y), pot


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
        # one type scan per list; else cell by cell, to convert an int opinion or name a player
        if not {int}.issuperset(map(type, x)):
            _read_players(x, x, range(len(x)), _json_integer, where, "action")
        if not {float}.issuperset(map(type, y)):
            _read_players(y, y, range(len(y)), _json_number, where, "opinion")
        t = _read(_json_integer, t, where, "time index")
        active, pot = obj.get("active"), obj.get("potential")
        # row 0 follows no revision, so its active ids may be left out
        if not (t == 0 and active is None):
            active = _read(_ids(_json_integer), active, where, "active ids")
        pot = None if pot is None else _read(_json_number, pot, where, "potential")
        yield lineno, t, active, x, y, pot


def _ids(convert):
    """Reader of a list of 1-based player ids, as a tuple of 0-based indices."""
    return lambda ids: tuple(convert(i) - 1 for i in ids)


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


#: Trajectory file format name -> (cell text, potential text, (cell separator,
#: id separator, missing potential), line, rows). The cell text prints an action
#: (an int) or an opinion (a finite float). ``line(t, active, potential, x_text, y_text)``
#: is one row's text for ``trajectory_chunks``. ``rows(path, lines)``
#: reads numbered non-blank lines and yields the header's player count (None
#: without a header), then ``(lineno, t, active, x, y, potential or None)`` with
#: ``t`` an int, ``active`` a tuple of 0-based ids and the potential a float.
TRAJECTORY_FORMATS = {
    "csv": (format_real, format_real, (",", ";", ""), _csv_line, _csv_rows),
    "json-lines": (repr, json.dumps, (", ", ", ", "null"), _jsonl_line, _jsonl_rows),
}


def render_json(obj) -> str:
    """Canonical JSON of ``obj`` and a newline: the bytes of ``json.dumps(obj, sort_keys=True, indent=2)``."""
    return _json_text(obj, "\n") + "\n"


def _json_text(v, nl: str) -> str:
    """``v`` as ``json.dumps(v, sort_keys=True, indent=2)`` writes it, each newline as ``nl`` (``v``'s indent);
    a list of exact ints or of exact finite floats is one join, and ``json`` writes what is not handled here."""
    t = type(v)
    if t is str:
        return json.encoder.encode_basestring_ascii(v)
    if t is int or t is float and isfinite(v):
        return t.__repr__(v)
    if t is bool or v is None:
        return "null" if v is None else "true" if v else "false"
    inner = nl + "  "
    if t is list or t is tuple:
        kinds = set(map(type, v))
        if kinds == {int} or kinds == {float} and all(map(isfinite, v)):
            items = map(kinds.pop().__repr__, v)
        else:
            items = [_json_text(e, inner) for e in v]
        return f"[{inner}{(',' + inner).join(items)}{nl}]" if v else "[]"
    if t is dict and {str}.issuperset(map(type, v)):
        items = [f"{json.encoder.encode_basestring_ascii(k)}: {_json_text(v[k], inner)}" for k in sorted(v)]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}" if v else "{}"
    return json.dumps(v, sort_keys=True, indent=2).replace("\n", nl)


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
        return {"x": e.state.x.tolist(), "y": e.state.y.tolist(), "class": dict(vars(e.state_class)),
                "residual": e.residual}

    return {
        "equilibria": [entry(e) for e in report.equilibria],
        "boundary_equilibria": [entry(e) for e in report.boundary_equilibria],
        "action_profiles_scanned": report.action_profiles_scanned,
        "max_residual": report.solver_residuals,
    }


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
        "cells": [{**vars(c), "outcome_frequencies": dict(c.outcome_frequencies)} for c in table.cells],
        "invalid_cells": [
            {"cell": spec, "reason": reason} for spec, reason in table.invalid_cells
        ],
    }
