import io
import json
import os

import numpy as np
import pytest

import coevo.dynamics
import coevo.equilibria
from coevo.cli import cli_main


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "params": {"n": 4, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3},
        "network": {"type": "complete"},
        "schedule": {"kind": "round-robin", "seed": 0},
        "initial_state": "all-coop-consensus",
        "run": {"max_steps": 100000, "fixed_point_tol": 1e-10},
        "sweep": {"r": [2.0, 3.8], "alpha": [1 / 3], "beta": [1 / 3], "trials": 4},
    }
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def bad_config_path(tmp_path):
    doc = {"params": {"n": 4, "r": 4.0, "alpha": 1 / 3, "beta": 1 / 3}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestExitCodes:
    def test_validate_ok(self, config_path, capsys):
        assert cli_main(["validate", config_path]) == 0
        assert "config OK: 4 players" in capsys.readouterr().out

    def test_validate_quiet_prints_nothing(self, config_path, capsys):
        assert cli_main(["validate", config_path, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_invalid_config_is_exit_1(self, bad_config_path, capsys):
        assert cli_main(["validate", bad_config_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "1 < r < n" in err

    def test_missing_file_is_exit_1(self, tmp_path):
        assert cli_main(["validate", str(tmp_path / "absent.json")]) == 1

    def test_unknown_subcommand_is_exit_1(self, config_path):
        assert cli_main(["frobnicate", config_path]) == 1

    def test_no_subcommand_is_exit_1(self):
        assert cli_main([]) == 1

    def test_help_is_exit_0(self):
        assert cli_main(["--help"]) == 0
        assert cli_main(["simulate", "--help"]) == 0

    def test_version_is_exit_0(self, capsys):
        assert cli_main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("coevo ")

    @pytest.mark.parametrize("target", ["missing-dir", "existing-dir"])
    @pytest.mark.parametrize(
        "command",
        [
            ["simulate"],
            ["enumerate"],
            ["check-conditions"],
            ["best-response", "--player", "1", "--opinions", "0,0.6,0.6,0.6"],
            ["sweep"],
        ],
        ids=lambda command: command[0],
    )
    def test_unwritable_out_is_exit_1_naming_the_path(self, config_path, tmp_path, capsys, command, target):
        if target == "existing-dir":
            out = tmp_path / "a-dir"
            out.mkdir()
        else:
            out = tmp_path / "absent" / "out.txt"
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        assert cli_main([command[0], config_path, "--quiet", "--out", str(out), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert str(out) in captured.err
        assert ".tmp-" not in captured.err
        # no temporary file is left beside the target, and no directory is made
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "section, value",
        [
            ("sweep", {"r": 2.0, "alpha": [1 / 3], "beta": [1 / 3]}),
            ("sweep", {"r": [2.0], "alpha": [1 / 3], "beta": [1 / 3], "trials": [2]}),
            ("schedule", {"seed": [1]}),
            ("initial_state", {"preset": "random", "seed": {}}),
            ("params", {"n": 4.9, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3}),
            ("run", {"max_steps": 2.9}),
            ("schedule", {"seed": 2.5}),
            ("network", {"type": "grid", "rows": 2.5, "cols": 2}),
            ("initial_state", {"preset": "random", "seed": 2.5}),
            ("params", {"n": 4, "r": "2.0", "alpha": 1 / 3, "beta": 1 / 3}),
            ("params", {"n": 4, "r": 2.0, "alpha": ["0.25"] * 4, "beta": 0.25}),
            ("run", {"max_steps": True}),
            ("run", {"fixed_point_tol": "1e-10"}),
            ("schedule", {"seed": True}),
            ("network", {"type": "random", "edge_probability": True}),
            ("network", {"type": "random", "require_irreducible": "no"}),
            ("network", {"type": "inline", "matrix": [[0, 2, 2, 2]] * 4, "normalise": "false"}),
            ("sweep", {"r": ["2.5", True], "alpha": [1 / 3], "beta": [1 / 3]}),
            ("initial_state", {"x": [True, False, True, False], "y": [0.5] * 4}),
            ("initial_state", {"x": [1, 0, 1], "y": [0.5] * 3}),
            ("initial_state", {"x": [1, 0, 1, 0], "y": [0.5] * 4, "seed": 3}),
        ],
    )
    def test_malformed_config_value_is_exit_1(self, tmp_path, capsys, section, value):
        doc = {"params": {"n": 4, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3}, section: value}
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["sweep", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{section}." in err

    @pytest.mark.parametrize(
        "section, value, field",
        [
            (None, {"paramz": {}}, "unknown key paramz"),
            ("params", {"gama": 0.5}, "params.gama"),
            ("network", {"type": "random", "edge_prob": 0.9}, "network.edge_prob"),
            ("network", {"type": "complete", "seed": 1}, "network.seed"),
            ("schedule", {"sed": 4}, "schedule.sed"),
            ("initial_state", {"preset": "random", "sed": 4}, "initial_state.sed"),
            ("run", {"max_step": 10}, "run.max_step"),
        ],
    )
    def test_unknown_config_key_is_exit_1(self, tmp_path, capsys, section, value, field):
        doc = {"params": {"n": 4, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3}}
        if section is None:
            doc.update(value)
        elif section == "params":
            doc["params"].update(value)
        else:
            doc[section] = value
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert field in err

    @pytest.mark.parametrize(
        "section, value, argv, field",
        [
            ("network", {"type": "random", "seed": -3}, [], "network.seed"),
            ("network", {"type": "random-symmetric", "seed": -3}, [], "network.seed"),
            ("schedule", {"kind": "shuffled-rounds", "seed": -1}, [], "schedule.seed"),
            ("schedule", {"kind": "round-robin", "seed": -1}, [], "schedule.seed"),
            ("initial_state", {"preset": "random", "seed": -1}, [], "initial_state.seed"),
            ("schedule", {"kind": "shuffled-rounds", "seed": 2}, ["--seed", "-1"], "--seed"),
        ],
    )
    def test_negative_seed_is_exit_1(self, tmp_path, capsys, section, value, argv, field):
        doc = {"params": {"n": 4, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3}, section: value}
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{field} must be >= 0" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"params": {"n": 4, "r": 2.0, "alpha": 1.5, "beta": 0.3}},
                "player 1: alpha must lie in [0, 1], got 1.5",
            ),
            (
                {"params": {"n": 4, "r": 2.0, "alpha": 0.5, "beta": 0.5, "lambda": 0.5}},
                "player 1: alpha + beta + lam must sum to 1, got 1.5",
            ),
            (
                {
                    "params": {"n": 3, "r": 2.0, "alpha": 0.3, "beta": 0.3},
                    "network": {
                        "type": "inline",
                        "matrix": [[0, 0.5, 0.5], [0.5, 0, 0.5], [1.5, -0.5, 0]],
                    },
                },
                "negative weight W[3, 2] = -0.5",
            ),
            (
                {
                    "params": {"n": 2, "r": 1.5, "alpha": 0.3, "beta": 0.3},
                    "network": {"type": "inline", "matrix": [[0, 1], [0.5, 0]]},
                },
                "row 2 of the influence matrix sums to 0.5, must be 1",
            ),
            (
                {
                    "params": {"n": 2, "r": 1.5, "alpha": 0.3, "beta": 0.3},
                    "initial_state": {"x": [0, 0], "y": [0.5, 1.5]},
                },
                "player 2: opinion must lie in [0, 1], got 1.5",
            ),
        ],
    )
    def test_rejected_value_prints_as_a_plain_number(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad_value.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:")
        assert message in err
        assert "np." not in err

    @pytest.mark.parametrize(
        "kind, p, message",
        [("random", 0.05, "no irreducible draw"), ("random-symmetric", 0.02, "no connected draw")],
    )
    def test_failed_random_draw_is_exit_1(self, tmp_path, capsys, kind, p, message):
        doc = {
            "params": {"n": 8, "r": 2.0, "alpha": 0.3, "beta": 0.3},
            "network": {"type": kind, "edge_probability": p, "seed": 1},
        }
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: network: {message} in 200 tries")
        assert f"edge_probability={p})" in err

    @pytest.mark.parametrize("p, default_out", [(0.2, "irreducible=True"), (0.05, None)])
    def test_reducible_random_draw_is_kept_when_allowed(self, tmp_path, capsys, p, default_out):
        network = {"type": "random", "edge_probability": p, "seed": 0}
        doc = {"params": {"n": 6, "r": 2.0, "alpha": 0.3, "beta": 0.3}, "network": network}
        path = tmp_path / "random.json"
        path.write_text(json.dumps({**doc, "network": {**network, "require_irreducible": False}}))
        assert cli_main(["validate", str(path)]) == 0
        assert capsys.readouterr().out.rstrip().endswith("irreducible=False")
        assert cli_main(["simulate", str(path), "--quiet"]) == 0
        capsys.readouterr()
        # by default the draw is re-sampled until irreducible, or refused
        path.write_text(json.dumps(doc))
        rc = cli_main(["validate", str(path)])
        out, err = capsys.readouterr()
        if default_out is None:
            assert rc == 1 and out == "" and f"edge_probability={p})" in err
        else:
            assert rc == 0 and out.rstrip().endswith(default_out)

    @pytest.mark.parametrize("tol", ["NaN", "Infinity", "0", "-1"])
    def test_fixed_point_tol_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        doc = '{"params": {"n": 4, "r": 2.0, "alpha": 0.3, "beta": 0.3}, "run": {"fixed_point_tol": %s}}'
        path = tmp_path / "tol.json"
        path.write_text(doc % tol)
        assert cli_main(["validate", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: run.fixed_point_tol must be ")

    @pytest.mark.parametrize(
        "sweep_section, message",
        [
            (
                {"r": [2.0], "alpha": [1 / 3], "beta": [1 / 3], "gamma": [0.1]},
                "error: unknown key sweep.gamma; use alpha, beta, r, trials\n",
            ),
            ({"r": [2.0], "alpha": [1 / 3]}, "error: sweep.beta is required\n"),
            ({"r": [2.0], "alpha": 0.3, "beta": [1 / 3]}, "error: sweep.alpha must be a list of numbers\n"),
        ],
        ids=["extra-axis", "missing-axis", "scalar-axis"],
    )
    def test_sweep_section_is_checked_at_load(self, tmp_path, capsys, sweep_section, message):
        doc = {"params": {"n": 4, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3}, "sweep": sweep_section}
        path = tmp_path / "sweep_section.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 1
        assert capsys.readouterr() == ("", message)

    def test_sweepless_config_refused_for_sweep(self, tmp_path):
        doc = {"params": {"n": 2, "r": 1.5, "alpha": 1 / 3, "beta": 1 / 3}}
        path = tmp_path / "nosweep.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["sweep", str(path)]) == 1


class TestSimulate:
    def test_stdout_csv_and_stderr_summary(self, config_path, capsys):
        assert cli_main(["simulate", config_path]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "t,active,x_1,x_2,x_3,x_4,y_1,y_2,y_3,y_4,potential"
        assert "stopped after" in captured.err
        assert "fixed_point" in captured.err
        assert "final class: all-defection-consensus" in captured.err

    def test_quiet_suppresses_summary(self, config_path, capsys):
        assert cli_main(["simulate", config_path, "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_runs_are_byte_identical(self, config_path, capsys):
        assert cli_main(["simulate", config_path, "--quiet"]) == 0
        first = capsys.readouterr().out
        assert cli_main(["simulate", config_path, "--quiet"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_out_file_matches_stdout(self, config_path, capsys, tmp_path):
        assert cli_main(["simulate", config_path, "--quiet"]) == 0
        stdout_text = capsys.readouterr().out
        out = tmp_path / "traj.csv"
        assert cli_main(["simulate", config_path, "--quiet", "--out", str(out)]) == 0
        assert out.read_text() == stdout_text

    def test_stdout_is_written_one_row_block_at_a_time(self, config_path, capsys, monkeypatch):
        assert cli_main(["simulate", config_path, "--quiet"]) == 0
        text = capsys.readouterr().out
        writes = []

        class Recorder(io.StringIO):
            def write(self, chunk):
                writes.append(chunk)
                return len(chunk)

        # one-row blocks: each write is the header and row 0, or one later row
        monkeypatch.setattr(coevo.dynamics, "_block_rows", lambda n: 1)
        monkeypatch.setattr("sys.stdout", Recorder())
        assert cli_main(["simulate", config_path, "--quiet"]) == 0
        lines = text.splitlines(keepends=True)
        assert len(lines) > 3
        assert writes == ["".join(lines[:2]), *lines[2:]]

    def test_json_lines_format(self, config_path, capsys):
        assert cli_main(["simulate", config_path, "--quiet", "--format", "json-lines"]) == 0
        lines = capsys.readouterr().out.splitlines()
        first = json.loads(lines[0])
        assert first["t"] == 0
        assert first["x"] == [1, 1, 1, 1]

    def test_trajectory_round_trips_through_loader(self, config_path, tmp_path):
        from coevo.io import load_trajectory, render_trajectory_csv

        out = str(tmp_path / "traj.csv")
        assert cli_main(["simulate", config_path, "--quiet", "--out", out]) == 0
        original = open(out).read()
        reloaded = load_trajectory(out)
        assert render_trajectory_csv(reloaded) == original

    def test_seed_override_changes_shuffled_run(self, tmp_path, capsys):
        doc = {
            "params": {"n": 5, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3},
            "network": {"type": "random", "seed": 2},
            "schedule": {"kind": "shuffled-rounds", "seed": 0},
            "initial_state": {"preset": "random", "seed": 0},
            "run": {"max_steps": 200},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["simulate", str(path), "--quiet"]) == 0
        base = capsys.readouterr().out
        assert cli_main(["simulate", str(path), "--quiet", "--seed", "123"]) == 0
        overridden = capsys.readouterr().out
        assert cli_main(["simulate", str(path), "--quiet", "--seed", "123"]) == 0
        repeat = capsys.readouterr().out
        assert base != overridden
        assert overridden == repeat


    def test_an_undefined_best_response_is_exit_1_before_any_row(self, tmp_path, capsys):
        # player 3 weighs only the game; the one step of the budget revises player 1
        doc = {
            "params": {"n": 4, "r": 2.0, "alpha": [0.4, 0.4, 1.0, 0.4], "beta": [0.3, 0.3, 0.0, 0.3],
                       "lam": [0.3, 0.3, 0.0, 0.3]},
            "network": {"type": "complete"},
            "schedule": {"kind": "round-robin"},
            "initial_state": "all-coop-consensus",
            "run": {"max_steps": 1},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["simulate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: player 3: beta + lam must be positive")

    def test_divergence_summary_names_the_player(self, config_path, capsys, monkeypatch):
        import coevo.dynamics as dynamics_module

        real_revise = dynamics_module._revise

        def poisoned(y, rows, terms):
            s, y_raw = real_revise(y, rows, terms)
            return s, y_raw - 2.0

        monkeypatch.setattr(dynamics_module, "_revise", poisoned)
        assert cli_main(["simulate", config_path]) == 0
        err = capsys.readouterr().err
        assert "stopped after 0 steps: divergence_guard (player 1: raw opinion -" in err


class TestEnumerate:
    def test_max_n_default_is_the_enumeration_limit(self):
        from coevo.cli import _build_parser
        from coevo.equilibria import ENUMERATION_MAX_N

        args = _build_parser().parse_args(["enumerate", "c.json"])
        assert args.max_n == ENUMERATION_MAX_N

    def test_json_document(self, config_path, capsys):
        assert cli_main(["enumerate", config_path, "--quiet"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["action_profiles_scanned"] == 16
        assert len(doc["equilibria"]) == 1
        assert doc["equilibria"][0]["x"] == [0, 0, 0, 0]

    def test_summary_line(self, config_path, capsys):
        assert cli_main(["enumerate", config_path]) == 0
        assert "scanned 16 action profiles" in capsys.readouterr().err

    def test_max_n_refusal(self, tmp_path, capsys):
        doc = {"params": {"n": 5, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["enumerate", str(path), "--max-n", "4"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deterministic(self, config_path, capsys):
        assert cli_main(["enumerate", config_path, "--quiet"]) == 0
        a = capsys.readouterr().out
        assert cli_main(["enumerate", config_path, "--quiet"]) == 0
        assert a == capsys.readouterr().out


class TestCheckConditions:
    def test_defection_regime_lines(self, config_path, capsys):
        assert cli_main(["check-conditions", config_path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "all_defection_unique: holds for all players"
        assert out[1] == "all_cooperation_exists: fails for player(s) 1, 2, 3, 4"

    def test_cooperation_regime_lines(self, tmp_path, capsys):
        doc = {"params": {"n": 4, "r": 3.8, "alpha": 1 / 3, "beta": 1 / 3}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["check-conditions", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "all_defection_unique: fails for player(s) 1, 2, 3, 4"
        assert out[1] == "all_cooperation_exists: holds for all players"

    def test_exact_boundary_goes_to_defection(self, tmp_path, capsys):
        # beta*lam/(beta+lam) = 2*alpha*(1 - r/n) = 0.2 in decimals; in binary the
        # consensus discriminant is 1.4e-17, inside the tie band, and enumerate
        # finds (1, 1) only as a boundary equilibrium
        doc = {
            "params": {"n": 4, "r": 2.0, "alpha": 0.2, "beta": 0.4},
            "network": {"type": "ring"},
            "sweep": {"r": [2.0], "alpha": [0.2], "beta": [0.4], "trials": 2},
        }
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["check-conditions", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "all_defection_unique: holds for all players"
        assert out[1] == "all_cooperation_exists: fails for player(s) 1, 2, 3, 4"
        assert cli_main(["sweep", str(path), "--quiet"]) == 0
        (cell,) = json.loads(capsys.readouterr().out)["cells"]
        got = [cell[k] for k in ("all_defection_unique", "all_cooperation_exists", "equilibrium_count", "boundary_count")]
        assert got == [True, False, 1, 1]

    def test_outside_the_interior_names_player_and_weight(self, tmp_path, capsys):
        # alpha = 1 leaves beta = lam = 0, where the conditions are not stated
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"params": {"n": 4, "r": 2.0, "alpha": 1.0, "beta": 0.0}}))
        assert cli_main(["check-conditions", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: player 1: the consensus conditions are stated for the strict interior")
        assert captured.err.rstrip().endswith("got alpha=1.0")

    def test_one_interior_scan_and_one_stationarity_pass(self, config_path, capsys, monkeypatch):
        calls = []
        for name in ("_interior_fault", "_stationarity"):
            real = getattr(coevo.equilibria, name)
            monkeypatch.setattr(coevo.equilibria, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        assert cli_main(["check-conditions", config_path]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert sorted(calls) == ["_interior_fault", "_stationarity"]

    def test_out_file_document(self, config_path, tmp_path):
        out = tmp_path / "conditions.json"
        assert cli_main(["check-conditions", config_path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["all_defection_unique"]["all_hold"] is True
        assert doc["all_cooperation_exists"]["all_hold"] is False
        assert doc["all_defection_unique"]["per_player"][0]["player"] == 1


class TestBestResponse:
    def test_values(self, config_path, capsys):
        rc = cli_main(
            ["best-response", config_path, "--player", "1", "--opinions", "0,0.6,0.6,0.6"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["entries"]) == 1
        entry = doc["entries"][0]
        assert entry["action"] == 0
        assert entry["opinion"] == pytest.approx(0.3, abs=1e-12)
        assert doc["discriminant"] < 0

    def test_player_out_of_range(self, config_path, capsys):
        rc = cli_main(["best-response", config_path, "--player", "5", "--opinions", "0,0,0,0"])
        assert rc == 1
        assert "--player must be in 1..4" in capsys.readouterr().err

    def test_opinion_vector_validation(self, config_path, capsys):
        assert cli_main(["best-response", config_path, "--player", "1", "--opinions", "0,0"]) == 1
        assert "--opinions must have 4 entries" in capsys.readouterr().err
        assert (
            cli_main(["best-response", config_path, "--player", "1", "--opinions", "0,0,0,zebra"])
            == 1
        )
        assert (
            cli_main(["best-response", config_path, "--player", "1", "--opinions", "0,0,0,1.5"])
            == 1
        )

    @pytest.mark.parametrize(
        "opinions, message",
        [
            ("nan,0.5,0.5,0.5", "player 1: opinion must lie in [0, 1], got nan"),
            ("0.5,1.5,0.5,0.5", "player 2: opinion must lie in [0, 1], got 1.5"),
            ("0.5,0.5,-inf,0.5", "player 3: opinion must lie in [0, 1], got -inf"),
        ],
    )
    def test_invalid_opinion_names_the_player(self, config_path, capsys, opinions, message):
        assert cli_main(["best-response", config_path, "--player", "1", "--opinions", opinions]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --opinions: {message}\n"

    def test_missing_required_flags(self, config_path):
        assert cli_main(["best-response", config_path]) == 1


class TestSweep:
    def test_document_and_summary(self, config_path, capsys):
        assert cli_main(["sweep", config_path]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert "swept 2 cells (0 invalid skipped), 4 trials each" in captured.err
        by_r = {cell["r"]: cell for cell in doc["cells"]}
        assert by_r[2.0]["all_defection_unique"] is True
        assert by_r[2.0]["outcome_frequencies"] == {"all-defection-consensus": 1.0}
        assert by_r[3.8]["equilibrium_count"] == 2

    def test_trials_override(self, config_path, capsys):
        assert cli_main(["sweep", config_path, "--trials", "2", "--quiet"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(cell["trials"] == 2 for cell in doc["cells"])

    def test_deterministic(self, config_path, capsys):
        assert cli_main(["sweep", config_path, "--quiet"]) == 0
        a = capsys.readouterr().out
        assert cli_main(["sweep", config_path, "--quiet"]) == 0
        assert a == capsys.readouterr().out

    def test_out_file(self, config_path, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert cli_main(["sweep", config_path, "--quiet", "--out", str(out)]) == 0
        assert cli_main(["sweep", config_path, "--quiet"]) == 0
        assert out.read_text() == capsys.readouterr().out


    def test_noncompliant_schedule_warns_in_one_plain_line(self, config_path, tmp_path, capsys):
        doc = json.loads(open(config_path).read())
        doc["schedule"] = {"kind": "iid-random", "seed": 0}
        path = tmp_path / "iid.json"
        path.write_text(json.dumps(doc))
        runs = []
        for _ in range(2):
            assert cli_main(["sweep", str(path), "--quiet"]) == 0
            runs.append(capsys.readouterr())
        assert runs[0] == runs[1]
        assert runs[0].err == (
            "warning: the iid-random schedule does not guarantee that every player revises "
            "within a fixed window; convergence conclusions do not apply to it\n"
        )
        doc["schedule"]["kind"] = "round-robin"
        path.write_text(json.dumps(doc))
        assert cli_main(["sweep", str(path), "--quiet"]) == 0
        assert capsys.readouterr().err == ""

    def test_unknown_axis_is_exit_1(self, tmp_path, capsys):
        doc = {
            "params": {"n": 4, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3},
            "sweep": {"r": [2.0], "alpha": [1 / 3], "beta": [1 / 3], "gamma": [0.2]},
        }
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["sweep", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "gamma" in captured.err

    def test_config_seed_drives_synchronous_trials(self, tmp_path, capsys):
        def sweep_output(config_seed, *flags):
            doc = {
                "params": {"n": 4, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3},
                "network": {"type": "complete"},
                "schedule": {"kind": "synchronous", "seed": config_seed},
                "initial_state": "all-coop-consensus",
                "run": {"max_steps": 200},
                "sweep": {"r": [3.8], "alpha": [0.2], "beta": [1 / 3], "trials": 8},
            }
            path = tmp_path / f"sync{config_seed}.json"
            path.write_text(json.dumps(doc))
            assert cli_main(["sweep", str(path), "--quiet", *flags]) == 0
            return capsys.readouterr().out

        seeded = sweep_output(5)
        assert json.loads(seeded)["seed"] == 5
        assert seeded != sweep_output(0)
        assert seeded == sweep_output(0, "--seed", "5")


class TestEntryPoint:
    def test_closed_stdout_is_exit_1(self, tmp_path):
        """A reader that leaves after the first line ends the run quietly with exit 1."""
        import subprocess
        import sys
        from pathlib import Path

        doc = {
            "params": {"n": 64, "r": 2.0, "alpha": 0.4, "beta": 0.3},
            "network": {"type": "ring"},
            "initial_state": {"preset": "random", "seed": 0},
        }
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(doc))
        src = str(Path(coevo.dynamics.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-c", "import coevo.cli; coevo.cli.main()", "simulate", str(path), "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline().startswith(b"t,active,x_1,")
        proc.stdout.close()  # the trajectory is megabytes: the run is still writing
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""

    def test_console_script_is_wired(self, tmp_path):
        """The `coevo` script that a build declares runs `coevo.cli.main`.

        A checkout run from `src/` has no installed metadata, so the build
        backend's own metadata step writes it under `tmp_path` instead.
        """
        import importlib.metadata as md
        import subprocess
        import sys
        from pathlib import Path

        import coevo.cli

        pytest.importorskip("setuptools")
        root = Path(__file__).resolve().parents[1]
        subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()",
             "-q", "egg_info", "--egg-base", str(tmp_path)],
            cwd=root, check=True, capture_output=True,
        )
        dist = md.PathDistribution(tmp_path / "coevo.egg-info")
        matches = [ep for ep in dist.entry_points
                   if ep.group == "console_scripts" and ep.name == "coevo"]
        assert len(matches) == 1
        assert matches[0].value == "coevo.cli:main"
        assert matches[0].load() is coevo.cli.main


def test_one_parser_serves_every_call_and_keeps_nothing_between_them(tmp_path, capsys):
    """``cli_main`` reuses one parser: a later call writes what it writes in a fresh
    process, whatever options, errors and flags the calls before it had."""
    import subprocess
    import sys
    from pathlib import Path

    import coevo.cli

    doc = {
        "params": {"n": 6, "r": 2.5, "alpha": 0.3, "beta": 0.4},
        "network": {"type": "ring"},
        "schedule": {"kind": "shuffled-rounds", "seed": 5},
        "initial_state": {"preset": "random", "seed": 2},
        "run": {"max_steps": 200},
    }
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["simulate", str(path), "--format", "json-lines", "--seed", "3"]) == 0
    assert cli_main(["simulate", str(path), "--format", "xml"]) == 1
    assert cli_main(["--version"]) == 0
    capsys.readouterr()
    assert cli_main(["simulate", str(path)]) == 0
    out = capsys.readouterr().out
    assert coevo.cli._build_parser() is coevo.cli._build_parser()
    # the fresh process also shows that importing the package builds no parser
    code = "import coevo, coevo.cli as c; assert c._build_parser.cache_info().currsize == 0; c.main()"
    src = str(Path(coevo.dynamics.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-c", code, "simulate", str(path)], capture_output=True, check=True,
                           env={**os.environ, "PYTHONPATH": src})
    assert out.startswith("t,active,x_1,")
    assert out.encode("utf-8") == fresh.stdout
