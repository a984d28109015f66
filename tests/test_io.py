import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coevo.dynamics as dynamics_module
import coevo.io as io_module
from coevo.cli import cli_main
from coevo.config import load_config
from coevo.dynamics import Trajectory, make_schedule, run
from coevo.equilibria import check_all_defection_unique, enumerate_equilibria
from coevo.io import (
    TRAJECTORY_FORMATS,
    atomic_write,
    best_response_to_jsonable,
    condition_report_to_jsonable,
    emit_trajectory,
    format_real,
    load_trajectory,
    render_json,
    render_trajectory_csv,
    trajectory_chunks,
)
from coevo.model import SystemState, best_response
from instances import random_interior_params, random_row_stochastic, random_state


def render_jsonl(traj: Trajectory) -> str:
    """The JSON-lines text that ``emit_trajectory`` writes for ``traj``, as one string."""
    return "".join(trajectory_chunks(io_module._blocks(traj), traj.x.shape[1], "json-lines"))


def states_equal(a: Trajectory, b: Trajectory) -> bool:
    if len(a.states) != len(b.states) or a.active_sets != b.active_sets:
        return False
    for sa, sb in zip(a.states, b.states):
        if not np.array_equal(sa.x, sb.x) or not np.array_equal(sa.y, sb.y):
            return False
    if (a.potentials is None) != (b.potentials is None):
        return False
    if a.potentials is not None and list(a.potentials) != list(b.potentials):
        return False
    return True


def make_trajectory(rng, n=4, with_potentials=True, steps=6) -> Trajectory:
    states = [random_state(rng, n) for _ in range(steps + 1)]
    actives = tuple(
        tuple(sorted(int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)))
        for _ in range(steps)
    )
    pots = tuple(float(v) for v in rng.normal(size=steps + 1)) if with_potentials else None
    return Trajectory(
        x=np.array([s.x for s in states]),
        y=np.array([s.y for s in states]),
        active_sets=actives,
        potentials=pots,
        stop_reason="max_steps",
    )


def reference_csv(traj: Trajectory) -> str:
    """Every cell of every row formatted afresh: the oracle for the renderer."""
    n = traj.x.shape[1]
    header = ["t", "active"] + [f"x_{i}" for i in range(1, n + 1)]
    header += [f"y_{i}" for i in range(1, n + 1)] + ["potential"]
    lines = [",".join(header)]
    for t, state in enumerate(traj.states):
        active = "" if t == 0 else ";".join(str(i + 1) for i in traj.active_sets[t - 1])
        pot = "" if traj.potentials is None else format_real(traj.potentials[t])
        cells = [str(t), active] + [str(int(v)) for v in state.x]
        cells += [format_real(v) for v in state.y] + [pot]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestFormatReal:
    def test_spot_values(self):
        assert format_real(0.5) == "0.5"
        assert format_real(1.0) == "1"
        assert float(format_real(1 / 3)) == 1 / 3

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trips_any_double(self, v):
        assert float(format_real(v)) == v

    def test_negative_zero(self):
        assert math.copysign(1.0, float(format_real(-0.0))) == -1.0


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write(str(path), "first\n")
        atomic_write(str(path), "second\n")
        assert path.read_text() == "second\n"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write(str(tmp_path / "a.txt"), "x" * 10000)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]

    def test_multibyte_text_reads_back(self, tmp_path):
        # more than 2 MiB of 2- and 3-byte characters, as one string and as pieces
        text = "é€" * (1 << 20) + "tail é"
        assert len(text.encode("utf-8")) > 2 * 2**20
        path = tmp_path / "big.txt"
        for pieces in (text, [text[:7], text[7 : 1 << 20], text[1 << 20 :]]):
            atomic_write(str(path), pieces)
            assert path.read_bytes() == text.encode("utf-8")


class TestTrajectoryFiles:
    def test_csv_layout(self, rng):
        params = random_interior_params(rng, 2)
        net = random_row_stochastic(rng, 2)
        traj = run(
            SystemState(np.array([1, 0]), np.array([1.0, 0.0])),
            make_schedule("round-robin", 2),
            params,
            net,
            max_steps=2,
        )
        text = render_trajectory_csv(traj)
        lines = text.splitlines()
        assert lines[0] == "t,active,x_1,x_2,y_1,y_2,potential"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == ""
        assert first[2:4] == ["1", "0"]
        second = lines[2].split(",")
        assert second[1] == "1"

    def test_csv_matches_full_reformatting(self, rng):
        # rows that repeat, flip single cells, and swap 0.0 for -0.0 (equal
        # by value, different text) exercise the changed-cells renderer
        for with_pots in (True, False):
            n, steps = 4, 40
            x = rng.integers(0, 2, size=(steps + 1, n))
            y = rng.choice([0.0, -0.0, 0.25, 1 / 3, 1.0], size=(steps + 1, n))
            keep = rng.random((steps + 1, n)) < 0.6
            for t in range(1, steps + 1):
                x[t, keep[t]] = x[t - 1, keep[t]]
                y[t, keep[t]] = y[t - 1, keep[t]]
            traj = Trajectory(
                x=x,
                y=y,
                active_sets=tuple((int(i),) for i in rng.integers(0, n, size=steps)),
                potentials=rng.normal(size=steps + 1) if with_pots else None,
                stop_reason="max_steps",
            )
            assert render_trajectory_csv(traj) == reference_csv(traj)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_csv_matches_full_reformatting_on_any_rows(self, data):
        # 0, 1, 2 or many rows; each step changes nothing, actions only,
        # opinions only or both, opinions swap 0.0 for -0.0, and a run of
        # unchanged rows may close the trajectory
        n = data.draw(st.integers(1, 6))
        opinions = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1 / 3]), st.floats(0.0, 1.0))
        kinds = st.sampled_from(["none", "actions", "opinions", "both"])
        changes = data.draw(st.lists(kinds, max_size=30))
        changes += ["none"] * data.draw(st.integers(0, 3))
        rows = data.draw(st.sampled_from([0, len(changes) + 1]))
        x = np.zeros((rows, n), dtype=np.int8)
        y = np.zeros((rows, n))
        if rows:
            x[0] = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
            y[0] = data.draw(st.lists(opinions, min_size=n, max_size=n))
        for t, change in enumerate(changes if rows else [], start=1):
            x[t], y[t] = x[t - 1], y[t - 1]
            if change in ("actions", "both"):
                i = data.draw(st.integers(0, n - 1))
                x[t, i] = 1 - x[t, i]
            if change in ("opinions", "both"):
                for i in data.draw(st.sets(st.integers(0, n - 1), min_size=1)):
                    y[t, i] = data.draw(opinions)
        reals = st.lists(st.floats(allow_nan=False), min_size=rows, max_size=rows)
        pots = data.draw(st.none() | reals)
        active = st.sets(st.integers(0, n - 1), min_size=1).map(sorted).map(tuple)
        traj = Trajectory(
            x=x,
            y=y,
            active_sets=tuple(data.draw(active) for _ in range(rows - 1)),
            potentials=pots,
            stop_reason="max_steps",
        )
        assert render_trajectory_csv(traj) == reference_csv(traj)

    def test_csv_rerenders_signed_zero(self):
        traj = Trajectory(
            x=np.zeros((3, 1)),
            y=np.array([[0.0], [-0.0], [0.0]]),
            active_sets=((0,), (0,)),
            potentials=None,
            stop_reason="max_steps",
        )
        rows = render_trajectory_csv(traj).splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["0", "-0", "0"]

    def test_round_trip_csv_bit_exact(self, rng, tmp_path):
        for with_pots in (True, False):
            traj = make_trajectory(rng, n=5, with_potentials=with_pots)
            path = str(tmp_path / f"t{with_pots}.csv")
            emit_trajectory(traj, path, format="csv")
            back = load_trajectory(path, format="csv")
            assert states_equal(traj, back)
            assert back.stop_reason == "unknown"

    def test_round_trip_jsonl_bit_exact(self, rng, tmp_path):
        for with_pots in (True, False):
            traj = make_trajectory(rng, n=3, with_potentials=with_pots)
            path = str(tmp_path / f"t{with_pots}.jsonl")
            emit_trajectory(traj, path, format="json-lines")
            back = load_trajectory(path, format="json-lines")
            assert states_equal(traj, back)

    def test_round_trip_preserves_awkward_doubles(self, tmp_path):
        y = np.array([np.nextafter(0.0, 1.0), 1 / 3, np.nextafter(1.0, 0.0)])
        traj = Trajectory(
            x=np.array([[0, 1, 0]]),
            y=y[None, :],
            active_sets=(),
            potentials=(-1 / 7,),
            stop_reason="max_steps",
        )
        for fmt, name in (("csv", "a.csv"), ("json-lines", "a.jsonl")):
            path = str(tmp_path / name)
            emit_trajectory(traj, path, format=fmt)
            back = load_trajectory(path, format=fmt)
            np.testing.assert_array_equal(back.states[0].y, y)
            assert back.potentials[0] == -1 / 7

    def test_empty_trajectory_renders_one_json_line_break(self, tmp_path):
        empty = Trajectory(
            x=np.zeros((0, 0)), y=np.zeros((0, 0)), active_sets=(), potentials=None, stop_reason="unknown"
        )
        path = tmp_path / "empty.jsonl"
        emit_trajectory(empty, str(path), "json-lines")
        assert path.read_bytes() == b"\n"

    def test_empty_trajectory_is_header_only(self, tmp_path):
        empty = Trajectory(
            x=np.zeros((0, 0)), y=np.zeros((0, 0)), active_sets=(), potentials=None, stop_reason="unknown"
        )
        assert render_trajectory_csv(empty) == "t,active,potential\n"
        path = str(tmp_path / "empty.csv")
        emit_trajectory(empty, path)
        back = load_trajectory(path)
        assert back.states == ()
        assert back.active_sets == ()

    def test_unknown_format_rejected(self, rng, tmp_path):
        traj = make_trajectory(rng, n=2)
        with pytest.raises(ValueError, match="unknown trajectory format"):
            emit_trajectory(traj, str(tmp_path / "t.xml"), format="xml")
        with pytest.raises(ValueError, match="unknown trajectory format"):
            load_trajectory(str(tmp_path / "t.xml"), format="xml")

    def test_csv_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,active,x_1,y_1,potential\n0,,1,0.5,\n0,,1,0.5,\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: time index 0 out of order"):
            load_trajectory(str(path))
        path.write_text("t,active,x_1,y_1,potential\n0,,1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: expected 5 columns, got 3"):
            load_trajectory(str(path))
        path.write_text("time,who\n")
        with pytest.raises(ValueError, match="unrecognised trajectory header"):
            load_trajectory(str(path))
        path.write_text("")
        with pytest.raises(ValueError, match="empty trajectory file"):
            load_trajectory(str(path))

    def test_csv_missing_potential_mid_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "t,active,x_1,y_1,potential\n0,,1,0.5,-0.25\n1,1,1,0.5,\n"
        )
        with pytest.raises(ValueError, match=r"bad\.csv:3: missing potential"):
            load_trajectory(str(path))

    @pytest.mark.parametrize("format, line, text", [
        ("csv", 4, "t,active,x_1,y_1,potential\n0,,1,0.5,\n1,1,1,0.5,\n2,1,1,0.5,-0.25\n"),
        ("json-lines", 3, '{"t": 0, "active": [], "x": [1], "y": [0.5]}\n'
                          '{"t": 1, "active": [1], "x": [1], "y": [0.5], "potential": null}\n'
                          '{"t": 2, "active": [1], "x": [1], "y": [0.5], "potential": -0.25}\n'),
    ])
    def test_potential_after_rows_without_one(self, tmp_path, format, line, text):
        # the first row has no potential, so no later row may have one
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=rf"bad\.txt:{line}: unexpected potential value"):
            load_trajectory(str(path), format=format)

    def test_invalid_rows_name_line_and_player(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = "t,active,x_1,x_2,y_1,y_2,potential\n"
        path.write_text(header + "0,,1,0,0.5,0.5,\n\n1,1,1,2,0.5,0.5,\n")
        with pytest.raises(ValueError, match=r"bad\.csv:4: player 2: action must be 0 or 1, got 2"):
            load_trajectory(str(path))
        path.write_text(header + "0,,1,0,0.5,0.5,\n1,1,1,0,0.5,nan,\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: player 2: opinion must lie in \[0, 1\]"):
            load_trajectory(str(path))
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 0, "active": [], "x": [0, 1], "y": [0.5, 1.5]}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:1: player 2: opinion must lie"):
            load_trajectory(str(path), format="json-lines")
        path.write_text(
            '{"t": 0, "active": [], "x": [0, 1], "y": [0.5, 1]}\n'
            '{"t": 1, "active": [1], "x": [0], "y": [0.5]}\n'
        )
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: expected 2 actions and 2 opinions"):
            load_trajectory(str(path), format="json-lines")

    def test_csv_unchanged_value_spelled_differently(self, tmp_path):
        path = tmp_path / "spelled.csv"
        path.write_text("t,active,x_1,y_1,potential\n0,,1,0.5,\n1,1,01,0.50,\n2,1,1,0.5,\n")
        back = load_trajectory(str(path))
        np.testing.assert_array_equal(back.x, [[1], [1], [1]])
        np.testing.assert_array_equal(back.y, [[0.5], [0.5], [0.5]])

    def test_header_only_csv_keeps_its_width(self, tmp_path):
        path = tmp_path / "empty3.csv"
        path.write_text("t,active,x_1,x_2,x_3,y_1,y_2,y_3,potential\n")
        back = load_trajectory(str(path))
        assert back.x.shape == back.y.shape == (0, 3)
        assert back.potentials is None

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,1,x,0,0.5,0.5,-1", r"bad\.csv:3: player 1: cannot read action 'x'"),
            ("1,1,1,0,0.5,abc,-1", r"bad\.csv:3: player 2: cannot read opinion 'abc'"),
            ("1,1,1,0,0.5,0.5,zz", r"bad\.csv:3: cannot read potential 'zz'"),
            ("one,1,1,0,0.5,0.5,-1", r"bad\.csv:3: cannot read time index 'one'"),
            ("1,x,1,0,0.5,0.5,-1", r"bad\.csv:3: cannot read active ids \['x'\]"),
            ("1,1,1,99999999999999999999,0.5,0.5,-1", r"bad\.csv:3: player 2: action must be 0 or 1"),
            # active ids are 1-based and name one of the n players
            ("1,0,1,0,0.5,0.5,-1", r"bad\.csv:3: active ids must lie in 1\.\.2, got \[0\]$"),
            ("1,1;3,1,0,0.5,0.5,-1", r"bad\.csv:3: active ids must lie in 1\.\.2, got \[1, 3\]$"),
        ],
    )
    def test_malformed_csv_cell_names_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text("t,active,x_1,x_2,y_1,y_2,potential\n0,,1,0,0.5,0.5,-1\n" + row + "\n")
        with pytest.raises(ValueError, match=message):
            load_trajectory(str(path))

    @pytest.mark.parametrize(
        "row, message",
        [
            ('{"t": 1, "active": [1], "y": [0.5]}', r"bad\.jsonl:2: not a trajectory row \(KeyError: 'x'\)"),
            ('{"t": 1, "active": [1], "x": "1", "y": [0.5]}', r"bad\.jsonl:2: not a trajectory row"),
            ('{"t": 1, "x": [1], "y": [0.5]}', r"bad\.jsonl:2: cannot read active ids None"),
            ('{"t": 1, "active": [1], "x": [1], "y": ["u"]}', r"bad\.jsonl:2: player 1: cannot read opinion 'u'"),
            ('{"t": 1, "active": [1], "x": [Infinity], "y": [0.5]}', r"bad\.jsonl:2: player 1: cannot read action inf"),
            ('{"t": 1, "active": [1], "x": [0.7], "y": [0.5]}', r"bad\.jsonl:2: player 1: cannot read action 0\.7$"),
            ('{"t": 1, "active": [1], "x": [1.0], "y": [0.5]}', r"bad\.jsonl:2: player 1: cannot read action 1\.0$"),
            ('{"t": 1, "active": [1], "x": [true], "y": [0.5]}', r"bad\.jsonl:2: player 1: cannot read action True$"),
            ('{"t": 1, "active": [1], "x": ["1"], "y": [0.5]}', r"bad\.jsonl:2: player 1: cannot read action '1'$"),
            ('{"t": 1, "active": [1], "x": [1], "y": ["0.5"]}', r"bad\.jsonl:2: player 1: cannot read opinion '0\.5'$"),
            ('{"t": 1, "active": [1], "x": [1], "y": [false]}', r"bad\.jsonl:2: player 1: cannot read opinion False$"),
            # the time index and active ids are JSON integers, not truncated
            ('{"t": 1.5, "active": [1], "x": [1], "y": [0.5]}', r"bad\.jsonl:2: cannot read time index 1\.5$"),
            ('{"t": true, "active": [1], "x": [1], "y": [0.5]}', r"bad\.jsonl:2: cannot read time index True$"),
            ('{"t": 1, "active": [1.7], "x": [1], "y": [0.5]}', r"bad\.jsonl:2: cannot read active ids \[1\.7\]$"),
            ('{"t": 1, "active": [true], "x": [1], "y": [0.5]}', r"bad\.jsonl:2: cannot read active ids \[True\]$"),
            ('{"t": 1, "active": [0], "x": [1], "y": [0.5]}', r"bad\.jsonl:2: active ids must lie in 1\.\.1, got \[0\]$"),
            ('{"t": 1, "active": [7], "x": [1], "y": [0.5]}', r"bad\.jsonl:2: active ids must lie in 1\.\.1, got \[7\]$"),
            # a potential is a JSON number or null
            ('{"t": 1, "active": [1], "x": [1], "y": [0.5], "potential": true}', r"bad\.jsonl:2: cannot read potential True$"),
            ('{"t": 1, "active": [1], "x": [1], "y": [0.5], "potential": "0.5"}', r"bad\.jsonl:2: cannot read potential '0\.5'$"),
        ],
    )
    def test_malformed_jsonl_row_names_line(self, tmp_path, row, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 0, "active": [], "x": [0], "y": [0.5]}\n' + row + "\n")
        with pytest.raises(ValueError, match=message):
            load_trajectory(str(path), format="json-lines")

    @pytest.mark.parametrize(
        "fmt, row",
        [
            ("csv", "0,2,1,0,0.5,0.5,-1"),
            ("json-lines", '{"t": 0, "active": [2], "x": [1, 0], "y": [0.5, 0.5], "potential": -1}'),
        ],
    )
    def test_active_ids_on_row_0_rejected(self, tmp_path, fmt, row):
        # row 0 follows no revision, and a render would drop its ids
        path = tmp_path / "row0.txt"
        header = "t,active,x_1,x_2,y_1,y_2,potential\n" if fmt == "csv" else ""
        path.write_text(header + row + "\n")
        lineno = 2 if fmt == "csv" else 1
        with pytest.raises(ValueError, match=rf"row0\.txt:{lineno}: row 0 has no active ids, got \[2\]$"):
            load_trajectory(str(path), format=fmt)

    def test_states_of_a_valid_file_are_checked_once(self, tmp_path, monkeypatch):
        # the Trajectory checks them; the loader looks for a line only after a refusal
        path = tmp_path / "ok.csv"
        path.write_text("t,active,x_1,x_2,y_1,y_2,potential\n0,,1,0,0.5,0.5,\n1,2,1,1,0.5,0.5,\n")
        calls = []
        monkeypatch.setattr(io_module, "_state_fault", lambda *args: calls.append(args))
        assert len(load_trajectory(str(path))) == 2
        assert calls == []

    def test_jsonl_row_0_may_leave_out_active(self, tmp_path):
        path = tmp_path / "row0.jsonl"
        path.write_text('{"t": 0, "x": [1, 0], "y": [0.5, 0.5]}\n{"t": 1, "active": [2], "x": [1, 1], "y": [0.5, 0.5]}\n')
        traj = load_trajectory(str(path), format="json-lines")
        assert traj.active_sets == ((1,),)
        assert render_jsonl(traj).splitlines()[0].startswith('{"active": [], ')

    def test_jsonl_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 0, "active": [], "x": [0], "y": [0.5]}\n{nope}\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_trajectory(str(path), format="json-lines")

    def test_active_column_uses_one_based_ids(self, rng, tmp_path):
        traj = Trajectory(
            x=np.zeros((2, 3)),
            y=np.zeros((2, 3)),
            active_sets=((0, 2),),
            potentials=None,
            stop_reason="max_steps",
        )
        text = render_trajectory_csv(traj)
        assert text.splitlines()[2].split(",")[1] == "1;3"
        path = str(tmp_path / "t.csv")
        emit_trajectory(traj, path)
        assert load_trajectory(path).active_sets == ((0, 2),)


#: Opinions that repeat, change back, and stress the decimal round trip:
#: both signed zeros, the smallest subnormal, the largest double below 1.
AWKWARD_OPINIONS = (0.0, -0.0, 5e-324, float(np.nextafter(1.0, 0.0)), 1 / 3, 0.5, 1.0)


@st.composite
def awkward_trajectories(draw):
    """Rows that differ from the row before in a few cells, as revisions make
    them, with values drawn from a small pool so cells repeat and change back."""
    n = draw(st.integers(1, 6))
    player = st.integers(0, n - 1)
    x = [draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))]
    y = [draw(st.lists(st.sampled_from(AWKWARD_OPINIONS), min_size=n, max_size=n))]
    active_sets = []
    for _ in range(draw(st.integers(0, 29))):
        changed = draw(st.lists(player, min_size=1, max_size=n, unique=True))
        x.append(list(x[-1]))
        y.append(list(y[-1]))
        for i in changed:
            x[-1][i] = draw(st.integers(0, 1))
            y[-1][i] = draw(st.sampled_from(AWKWARD_OPINIONS))
        active_sets.append(tuple(sorted(changed)))
    potential = st.sampled_from(AWKWARD_OPINIONS + (-1 / 7,))
    pots = draw(st.none() | st.lists(potential, min_size=len(x), max_size=len(x)))
    return Trajectory(
        x=x, y=y, active_sets=tuple(active_sets), potentials=pots, stop_reason="max_steps"
    )


@settings(max_examples=150, deadline=None)
@given(traj=awkward_trajectories())
def test_round_trip_is_bit_exact_in_both_formats(traj, tmp_path_factory):
    directory = tmp_path_factory.mktemp("round-trip")
    for fmt in ("csv", "json-lines"):
        path = str(directory / f"t.{fmt}")
        emit_trajectory(traj, path, format=fmt)
        back = load_trajectory(path, format=fmt)
        np.testing.assert_array_equal(back.x, traj.x)
        np.testing.assert_array_equal(back.y.view(np.int64), traj.y.view(np.int64))
        assert back.active_sets == traj.active_sets
        if traj.potentials is None:
            assert back.potentials is None
        else:
            np.testing.assert_array_equal(
                back.potentials.view(np.int64), traj.potentials.view(np.int64)
            )


def _jsonl_by_row(traj: Trajectory) -> str:
    """The reference JSON-lines renderer: each row's values through one ``json.dumps``."""
    out = []
    for t in range(len(traj)):
        obj = {
            "t": t,
            "active": [] if t == 0 else [i + 1 for i in traj.active_sets[t - 1]],
            "x": traj.x[t].tolist(),
            "y": traj.y[t].tolist(),
            "potential": None if traj.potentials is None else float(traj.potentials[t]),
        }
        out.append(json.dumps(obj, sort_keys=True) + "\n")
    return "".join(out) or "\n"


@settings(max_examples=200, deadline=None)
@given(traj=awkward_trajectories(), data=st.data())
def test_jsonl_renders_as_json_dumps_per_row(traj, data):
    # keep the first 0, 1 or more rows, and give them potentials that JSON
    # spells its own way, or none
    rows = data.draw(st.sampled_from([0, 1, len(traj)]))
    potential = st.sampled_from(AWKWARD_OPINIONS + (-1 / 7, math.nan, math.inf, -math.inf))
    pots = data.draw(st.none() | st.lists(potential, min_size=rows, max_size=rows))
    traj = Trajectory(
        x=traj.x[:rows],
        y=traj.y[:rows],
        active_sets=traj.active_sets[: max(rows - 1, 0)],
        potentials=pots,
        stop_reason="max_steps",
    )
    assert render_jsonl(traj) == _jsonl_by_row(traj)


@st.composite
def block_streams(draw, n):
    """Trajectories of n players whose steps each change no cell, one cell,
    every cell or some cells, or flip one opinion between 0.0 and -0.0, and
    now and then no rows at all."""
    n = draw(n)
    player, opinion = st.integers(0, n - 1), st.sampled_from(AWKWARD_OPINIONS) | st.floats(0.0, 1.0)
    steps = draw(st.lists(st.sampled_from(["none", "one", "all", "some", "signed-zero"]), max_size=24))
    steps = steps if draw(st.integers(0, 9)) else None
    rows = 0 if steps is None else len(steps) + 1
    x, y = np.zeros((rows, n), dtype=np.int8), np.zeros((rows, n))
    if rows:
        x[0] = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        y[0] = draw(st.lists(opinion, min_size=n, max_size=n))
    for t, step in enumerate(steps or [], start=1):
        x[t], y[t] = x[t - 1], y[t - 1]
        if step == "one":
            i = draw(player)
            if draw(st.booleans()):
                x[t, i] = 1 - x[t, i]
            else:
                y[t, i] = draw(opinion)
        elif step == "all":
            x[t], y[t] = 1 - x[t], (y[t] + 0.5) % 1.0
        elif step == "some":
            for i in draw(st.sets(player, min_size=1)):
                x[t, i], y[t, i] = draw(st.integers(0, 1)), draw(opinion)
        elif step == "signed-zero":
            i = draw(player)
            y[t, i] = 0.0 if math.copysign(1.0, y[t, i]) < 0 else -0.0
    active = st.lists(player, min_size=1, max_size=3, unique=True).map(sorted).map(tuple)
    return Trajectory(
        x=x,
        y=y,
        active_sets=tuple(draw(active) for _ in range(rows - 1)),
        potentials=draw(st.none() | st.lists(st.floats(), min_size=rows, max_size=rows)),
        stop_reason="max_steps",
    )


def _check_chunks_against_full_rendering(traj: Trajectory) -> None:
    # trajectory_chunks fed directly, in blocks of 1, 2 and 7 rows and the
    # default size, against every cell of every row formatted afresh
    n, keys, pots = traj.x.shape[1], ((), *traj.active_sets), traj.potentials
    for fmt, expected in (("csv", reference_csv(traj)), ("json-lines", _jsonl_by_row(traj))):
        for rows in (1, 2, 7, dynamics_module._block_rows(n)):
            blocks = [
                (traj.x[b], traj.y[b], keys[b], None if pots is None else pots[b])
                for b in (slice(k, k + rows) for k in range(0, len(traj), rows))
            ]
            chunks = list(trajectory_chunks(iter(blocks), n, fmt))
            # one piece per block, or one for an empty stream
            assert len(chunks) == max(len(blocks), 1)
            assert "".join(chunks) == expected


@settings(max_examples=150, deadline=None)
@given(traj=block_streams(st.integers(2, 40) | st.sampled_from([15, 16, 17, 32, 33])))
def test_trajectory_chunks_match_full_reformatting(traj):
    # the cached group joins in both formats, with n on both sides of the
    # 16-cell group edges
    _check_chunks_against_full_rendering(traj)


@settings(max_examples=5, deadline=None)
@given(traj=block_streams(st.just(192)))
def test_trajectory_chunks_match_full_reformatting_at_n_192(traj):
    _check_chunks_against_full_rendering(traj)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_loader_rejects_exactly_the_rows_system_state_rejects(data, tmp_path_factory):
    n = data.draw(st.integers(1, 3))
    action = st.sampled_from(["0", "1", "2", "-1"])
    opinion = st.sampled_from(["0", "0.5", "1", "1.5", "-0.25", "nan", "inf", "-inf"])
    rows = data.draw(st.lists(
        st.tuples(st.lists(action, min_size=n, max_size=n), st.lists(opinion, min_size=n, max_size=n)),
        min_size=1,
        max_size=4,
    ))
    ids = range(1, n + 1)
    lines = [",".join(["t", "active", *(f"x_{i}" for i in ids), *(f"y_{i}" for i in ids), "potential"])]
    lines += [",".join([str(t), "1" if t else "", *x, *y, ""]) for t, (x, y) in enumerate(rows)]
    path = str(tmp_path_factory.mktemp("oracle") / "t.csv")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    expected = None
    for t, (x, y) in enumerate(rows):
        try:
            SystemState(np.array([int(v) for v in x]), np.array([float(v) for v in y]))
        except ValueError as exc:
            expected = f"{path}:{t + 2}: {exc}"
            break
    if expected is None:
        assert len(load_trajectory(path)) == len(rows)
    else:
        with pytest.raises(ValueError) as info:
            load_trajectory(path)
        assert str(info.value) == expected


class TestJsonRendering:
    def test_render_json_is_canonical(self):
        assert render_json({"b": 1, "a": [2]}) == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'

    def test_condition_report_uses_one_based_players(self, params_r2):
        doc = condition_report_to_jsonable(check_all_defection_unique(params_r2))
        assert [p["player"] for p in doc["per_player"]] == [1, 2, 3, 4]
        assert doc["all_hold"] is True
        assert doc["condition_id"] == "all_defection_unique"

    def test_best_response_document(self, params_r2, complete4):
        doc = best_response_to_jsonable(
            best_response(0, np.full(4, 0.9), params_r2, complete4)
        )
        assert set(doc) == {"discriminant", "entries"}
        assert len(doc["entries"]) == 1
        assert set(doc["entries"][0]) == {"action", "opinion"}

    def test_equilibrium_report_round_trips_through_json(self, params_r2, complete4):
        import json

        from coevo.io import equilibrium_report_to_jsonable

        doc = equilibrium_report_to_jsonable(enumerate_equilibria(params_r2, complete4))
        parsed = json.loads(render_json(doc))
        assert parsed["action_profiles_scanned"] == 16
        assert parsed["equilibria"][0]["x"] == [0, 0, 0, 0]
        assert parsed["equilibria"][0]["class"]["full_class"] == "all-defection-consensus"


#: Floats at the edges of ``repr``'s text: signed zero, subnormals, where the
#: exponent form starts on either side (1e16, 1e-5), the largest double and the
#: values JSON has no number for.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0, 1e-5, 0.0001,
               1.7976931348623157e308, math.nan, math.inf, -math.inf]
_floats = st.floats() | st.sampled_from(EDGE_FLOATS)
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS[:-3])
_ints = st.integers() | st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**64))
_json_leaves = (
    st.none() | st.booleans() | _ints | _floats | _floats.map(np.float64) | st.text()
    | st.lists(_ints) | st.lists(_finite) | st.lists(_ints | _finite | _finite.map(np.float64))
    | st.lists(_ints | st.booleans())
)
#: Documents of every shape ``render_json`` writes: str keys of any characters
#: (non-ASCII, quotes, controls), empty and nested dicts, lists and tuples.
json_documents = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=25,
)


@settings(max_examples=800, deadline=None)
@given(json_documents)
def test_render_json_writes_the_bytes_of_json_dumps(doc):
    assert render_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [np.int64(1), [1, np.int64(2)], {"a": [{"b": np.int64(3)}]}, {"c": {1, 2}}])
def test_render_json_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError) as want:
        json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(TypeError) as got:
        render_json(doc)
    assert str(got.value) == str(want.value)


#: Small simulate configs, one per schedule kind, plus one with prejudice
#: attachment (gamma > 0), where the potential column is empty.
GOLDEN_CONFIGS = {
    "ring-round-robin": {
        "params": {"n": 7, "r": 2.0, "alpha": 0.4, "beta": 0.3},
        "network": {"type": "ring"},
        "schedule": {"kind": "round-robin"},
        "initial_state": {"preset": "random", "seed": 1},
        "run": {"max_steps": 400},
    },
    "random-shuffled-rounds": {
        "params": {
            "n": 6,
            "r": 3.5,
            "alpha": [0.2, 0.3, 0.25, 0.1, 0.4, 0.3],
            "beta": [0.5, 0.3, 0.45, 0.6, 0.3, 0.2],
        },
        "network": {"type": "random", "edge_probability": 0.5, "seed": 2},
        "schedule": {"kind": "shuffled-rounds", "seed": 5},
        "initial_state": {"preset": "random", "seed": 3},
        "run": {"max_steps": 400},
    },
    "complete-iid-random": {
        "params": {"n": 5, "r": 4.6, "alpha": 0.1, "beta": 0.3},
        "network": {"type": "complete"},
        "schedule": {"kind": "iid-random", "seed": 9},
        "initial_state": {"preset": "random", "seed": 4},
        "run": {"max_steps": 300},
    },
    "two-cycle-synchronous": {
        "params": {"n": 2, "r": 1.9, "alpha": 0.01, "beta": 0.495},
        "network": {"type": "inline", "matrix": [[0, 1], [1, 0]]},
        "schedule": {"kind": "synchronous"},
        "initial_state": {"x": [1, 0], "y": [1.0, 0.0]},
        "run": {"max_steps": 40},
    },
    "prejudice-shuffled-rounds": {
        "params": {
            "n": 5, "r": 2.5, "alpha": 0.3, "beta": 0.4, "gamma": 0.25, "prejudice": 0.8
        },
        "network": {"type": "random-symmetric", "edge_probability": 0.6, "seed": 4},
        "schedule": {"kind": "shuffled-rounds", "seed": 2},
        "initial_state": {"preset": "random", "seed": 6},
        "run": {"max_steps": 300},
    },
}

#: SHA-256 of ``coevo simulate`` output for each golden config and format,
#: recorded from the per-state implementation of the dynamics and renderers.
GOLDEN_DIGESTS = {
    ("ring-round-robin", "csv"): "40070c23aa8196fdecb735cda623072ccab1650d44f559850e5dfb0e82e8c855",
    ("ring-round-robin", "json-lines"): "ccac55b68a79cea83db61d57452fd866b3bcab247742b4f6db174e1d536dfa8f",
    ("random-shuffled-rounds", "csv"): "2577c3422f9135c4e77e33c271d4c5f0b72c347627d4294e04be779bdc2837f9",
    ("random-shuffled-rounds", "json-lines"): "49f6fce25ed6cbac714292c0772dfc8cc3cd5b998fb52be3ec955ec53cb18c3e",
    ("complete-iid-random", "csv"): "dfecd0c8f41e2ef7914bce10d43700e7328b53194e370caf3ec02b115a4e4752",
    ("complete-iid-random", "json-lines"): "d72885ddd8ae9b2ecd8140acf0a70f8858923cc830dd49e73fd57bbecb6faeae",
    ("two-cycle-synchronous", "csv"): "1599b37f7f7dd6291078ff68b0b7f2ffb14bdd88b14d7219501b6cf5a4ebf5af",
    ("two-cycle-synchronous", "json-lines"): "ae41ae7bdbfbb72a783475eb6ec89816960ef9ddfa8cab2f0644f33fa6a89350",
    ("prejudice-shuffled-rounds", "csv"): "ff83ea6ea0a798d334e3761084703a6eb7a5cd92e5a478bfa50ff8c5426293f7",
    ("prejudice-shuffled-rounds", "json-lines"): "34ccad82cefde9b311eee6d425de2ac5a719d616132f4c32127da503b1acf84a",
}


#: Rows per block that ``simulate`` renders at a time: the default for n, and
#: sizes that put block boundaries at every row, every second and every seventh.
BLOCK_ROWS = (None, 1, 2, 7)


def _set_block_rows(monkeypatch, rows) -> None:
    if rows is not None:
        monkeypatch.setattr(dynamics_module, "_block_rows", lambda n: rows)


#: Each golden output at every block size; the default size keeps the plain id.
GOLDEN_CASES = [
    pytest.param(name, fmt, rows, id=f"{name}-{fmt}" + ("" if rows is None else f"-rows{rows}"))
    for name, fmt in sorted(GOLDEN_DIGESTS)
    for rows in BLOCK_ROWS
]


@pytest.mark.parametrize("name,fmt,rows", GOLDEN_CASES)
def test_outputs_match_recorded_digests(name, fmt, rows, tmp_path, capsys, monkeypatch):
    _set_block_rows(monkeypatch, rows)
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(GOLDEN_CONFIGS[name]))
    out = tmp_path / "trajectory"
    argv = ["simulate", str(config), "--format", fmt, "--quiet"]
    assert cli_main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_DIGESTS[name, fmt]
    capsys.readouterr()
    assert cli_main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


@pytest.mark.parametrize("rows", BLOCK_ROWS)
@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_library_run_and_render_write_the_simulate_bytes(name, rows, tmp_path, monkeypatch):
    # the benchmark's replay rebuilds simulate's file from the library as
    # atomic_write(path, render_trajectory_csv(run(...))) and counts any byte
    # difference from the CLI's file as a failed call
    _set_block_rows(monkeypatch, rows)
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(GOLDEN_CONFIGS[name]))
    cfg = load_config(str(config))
    traj = run(
        cfg.initial_state,
        cfg.schedule,
        cfg.params,
        cfg.network,
        max_steps=cfg.max_steps,
        fixed_point_tol=cfg.fixed_point_tol,
    )
    for fmt in ("csv", "json-lines"):
        library, out = tmp_path / f"library.{fmt}", tmp_path / f"cli.{fmt}"
        if fmt == "csv":
            atomic_write(str(library), render_trajectory_csv(traj))
        else:
            emit_trajectory(traj, str(library), fmt)
        assert cli_main(["simulate", str(config), "--format", fmt, "--quiet", "--out", str(out)]) == 0
        assert library.read_bytes() == out.read_bytes()
    assert states_equal(load_trajectory(str(out), format="json-lines"), traj)


def _fresh_peak_kib(code: str, argv: list) -> int:
    """The one number that ``code`` prints when a fresh interpreter runs it with
    ``argv``; ``code`` may call ``hwm()``, the process's peak memory in KiB.

    That peak is the process's own high-water mark (``VmHWM``). ``ru_maxrss``
    would be the same number, except that Linux carries it over from the
    process that forked the interpreter, here the larger test runner.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    hwm = "def hwm(): return int(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
    done = subprocess.run([sys.executable, "-c", hwm + code, *map(str, argv)], env=env, capture_output=True, text=True, check=True)
    return int(done.stdout)


def _simulate_peak_kib(config: Path, out: Path) -> int:
    """Peak resident memory in KiB of a fresh interpreter that runs ``coevo simulate --out`` once."""
    code = "import sys; from coevo.cli import cli_main; assert cli_main(sys.argv[1:]) == 0; print(hwm())"
    return _fresh_peak_kib(code, ["simulate", config, "--out", out, "--quiet"])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_simulate_memory_does_not_grow_with_max_steps(tmp_path):
    # the two-cycle instance flips its actions every step, so it always runs
    # to its budget: 100 times the steps must not take 100 times the memory
    peaks = []
    for max_steps in (400, 40_000):
        config = tmp_path / f"two-cycle-{max_steps}.json"
        config.write_text(json.dumps({**GOLDEN_CONFIGS["two-cycle-synchronous"], "run": {"max_steps": max_steps}}))
        out = tmp_path / f"two-cycle-{max_steps}.csv"
        peaks.append(_simulate_peak_kib(config, out))
        assert out.read_bytes().count(b"\n") == max_steps + 2  # the header and every row
    assert peaks[1] - peaks[0] < 2 * 1024, f"ru_maxrss grew from {peaks[0]} to {peaks[1]} KiB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("fmt", sorted(TRAJECTORY_FORMATS))
def test_emit_trajectory_memory_does_not_grow_with_rows(fmt, tmp_path):
    # a rows x 8 trajectory whose opinions all change on every row, about
    # 200 bytes of text a row: the peak over emit_trajectory must not follow
    # the rows, as it did while the whole file was one string
    code = (
        "import sys, numpy as np; from coevo.dynamics import Trajectory; from coevo.io import emit_trajectory\n"
        "rows, path, fmt = int(sys.argv[1]), sys.argv[2], sys.argv[3]; rng = np.random.default_rng(0)\n"
        "traj = Trajectory(rng.integers(0, 2, (rows, 8)), rng.random((rows, 8)), ((0,),) * (rows - 1), rng.random(rows), 'unknown')\n"
        "before = hwm(); emit_trajectory(traj, path, format=fmt); print(hwm() - before)"
    )
    growth = []
    for rows in (400, 40_000):
        out = tmp_path / f"rows-{rows}.{fmt}"
        growth.append(_fresh_peak_kib(code, [rows, out, fmt]))
        assert out.read_bytes().count(b"\n") == rows + (fmt == "csv")
    assert growth[1] - growth[0] < 2 * 1024, f"emit_trajectory grew the peak by {growth} KiB"


#: A synchronous sweep whose trials include 2-cycles that run until
#: ``max_steps``: 4 of its 32 trials end on the budget.
GOLDEN_SWEEP_CONFIG = {
    "params": {"n": 8, "r": 2.0, "alpha": 0.2, "beta": 0.3},
    "network": {"type": "random", "edge_probability": 0.4, "seed": 3},
    "schedule": {"kind": "synchronous", "seed": 2},
    "initial_state": "all-defect-consensus",
    "run": {"max_steps": 60},
    "sweep": {"r": [6.0, 7.9], "alpha": [0.2, 0.4], "beta": [0.3], "trials": 8},
}

#: SHA-256 of ``coevo sweep`` output for ``GOLDEN_SWEEP_CONFIG``, recorded
#: from the dynamics that re-derived every revision term on each step.
GOLDEN_SWEEP_DIGEST = "32ef1fa2dd53c383cda36378d0f2982b7f5db97ae13ea048a4b306197da61714"


@pytest.mark.blas_bits
def test_sweep_output_matches_recorded_digest(tmp_path, capsys):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(GOLDEN_SWEEP_CONFIG))
    assert cli_main(["sweep", str(config), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SWEEP_DIGEST


#: Small report configs: a ring and a 3x3 grid with ten equilibria each, some
#: of them without action consensus, and a random network whose players differ.
GOLDEN_REPORT_CONFIGS = {
    "ring": {"params": {"n": 8, "r": 7.0, "alpha": 0.15, "beta": 0.45}, "network": {"type": "ring"}},
    "grid": {
        "params": {"n": 9, "r": 7.75, "alpha": 0.15, "beta": 0.45},
        "network": {"type": "grid", "rows": 3, "cols": 3},
    },
    "random": {
        "params": {"n": 5, "r": 3.1, "alpha": [0.1, 0.3, 0.2, 0.05, 0.4], "beta": [0.6, 0.3, 0.5, 0.7, 0.2]},
        "network": {"type": "random", "edge_probability": 0.5, "seed": 7},
    },
}

#: Report call name -> (subcommand, config name, options); each writes its
#: report with ``--out``.
GOLDEN_REPORT_CALLS = {
    "enumerate-ring": ("enumerate", "ring", ()),
    "enumerate-grid": ("enumerate", "grid", ()),
    "check-conditions": ("check-conditions", "random", ()),
    "best-response": ("best-response", "random", ("--player", "2", "--opinions", "0.9,0.1,0.35,-0.0,1")),
}

#: SHA-256 of each report file, recorded from the program that rendered every
#: report with ``json.dumps(obj, sort_keys=True, indent=2)``.
GOLDEN_REPORT_DIGESTS = {
    "best-response": "c1a9cc37e2ba697639a73cc139a186615d8b84bc1190719ebdac92af2467b65e",
    "check-conditions": "58dcc2f819dd80491dce4385dc24184e5bb8a3e1dc98c5b1f5f73bc5fe1265b2",
    "enumerate-grid": "f0b649d76c054a70705e311fd76044fc71751de69941d90c95cd9f2208a74ae5",
    "enumerate-ring": "830ea4ad518b4131bf5c9c43e79601a78b9ff4283cccbff93fca9943edf4c1b6",
}


@pytest.mark.blas_bits
@pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_CALLS))
def test_report_outputs_match_recorded_digests(name, tmp_path):
    command, config_name, options = GOLDEN_REPORT_CALLS[name]
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(GOLDEN_REPORT_CONFIGS[config_name]))
    assert cli_main([command, str(config), "--quiet", "--out", str(out), *options]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_REPORT_DIGESTS[name]
