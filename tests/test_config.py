import json

import numpy as np
import pytest

from coevo.config import ConfigError, load_config
from coevo.model import SystemState


def write_config(tmp_path, doc, name="experiment.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


MINIMAL = {
    "params": {"n": 4, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3},
    "network": {"type": "complete"},
    "schedule": {"kind": "round-robin", "seed": 0},
    "initial_state": "all-coop-consensus",
    "run": {"max_steps": 1000000, "fixed_point_tol": 1e-10},
}


class TestValidConfigs:
    def test_minimal_document(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.params.n == 4
        assert cfg.params.r == 2.0
        np.testing.assert_allclose(cfg.params.lam, 1 / 3, atol=1e-15)
        np.testing.assert_array_equal(cfg.params.gamma, 0.0)
        np.testing.assert_array_equal(cfg.params.prejudice, 0.5)
        assert cfg.network.n == 4
        assert cfg.schedule.kind == "round-robin"
        assert cfg.initial_state == SystemState.all_cooperation(4)
        assert cfg.max_steps == 1_000_000
        assert cfg.fixed_point_tol == 1e-10
        assert cfg.sweep_grid is None

    def test_defaults_when_sections_omitted(self, tmp_path):
        cfg = load_config(
            write_config(tmp_path, {"params": {"n": 3, "r": 1.5, "alpha": 0.3, "beta": 0.4}})
        )
        assert cfg.schedule.kind == "round-robin"
        assert cfg.initial_state == SystemState.all_defection(3)
        assert cfg.network.n == 3
        assert cfg.max_steps == 1_000_000

    def test_per_player_weight_lists(self, tmp_path):
        doc = {
            "params": {
                "n": 2,
                "r": 1.5,
                "alpha": [0.2, 0.3],
                "beta": [0.5, 0.4],
                "lambda": [0.3, 0.3],
                "gamma": [0.0, 0.5],
                "prejudice": [0.1, 0.9],
            }
        }
        cfg = load_config(write_config(tmp_path, doc))
        np.testing.assert_array_equal(cfg.params.alpha, [0.2, 0.3])
        np.testing.assert_array_equal(cfg.params.gamma, [0.0, 0.5])
        np.testing.assert_array_equal(cfg.params.prejudice, [0.1, 0.9])

    def test_lam_alias_and_u_alias(self, tmp_path):
        doc = {"params": {"n": 2, "r": 1.5, "alpha": 0.2, "beta": 0.3, "lam": 0.5, "u": 0.25}}
        cfg = load_config(write_config(tmp_path, doc))
        np.testing.assert_array_equal(cfg.params.lam, 0.5)
        np.testing.assert_array_equal(cfg.params.prejudice, 0.25)

    def test_lambda_omission_fills_remainder(self, tmp_path):
        doc = {"params": {"n": 3, "r": 2.0, "alpha": 0.25, "beta": [0.5, 0.25, 0.1]}}
        cfg = load_config(write_config(tmp_path, doc))
        np.testing.assert_allclose(cfg.params.lam, [0.25, 0.5, 0.65], atol=1e-15)

    def test_explicit_initial_vectors(self, tmp_path):
        doc = dict(MINIMAL, initial_state={"x": [1, 0, 1, 0], "y": [0.1, 0.2, 0.3, 0.4]})
        cfg = load_config(write_config(tmp_path, doc))
        np.testing.assert_array_equal(cfg.initial_state.x, [1, 0, 1, 0])
        np.testing.assert_array_equal(cfg.initial_state.y, [0.1, 0.2, 0.3, 0.4])

    def test_random_initial_is_seeded(self, tmp_path):
        doc = dict(MINIMAL, initial_state={"preset": "random", "seed": 9})
        path = write_config(tmp_path, doc)
        a = load_config(path).initial_state
        b = load_config(path).initial_state
        assert a == b
        assert set(np.unique(a.x)) <= {0, 1}

    def test_seed_override_changes_both_seeds(self, tmp_path):
        doc = dict(
            MINIMAL,
            schedule={"kind": "shuffled-rounds", "seed": 1},
            initial_state={"preset": "random", "seed": 1},
        )
        path = write_config(tmp_path, doc)
        base = load_config(path)
        overridden = load_config(path, seed_override=999)
        assert base.schedule.seed == 1
        assert overridden.schedule.seed == 999
        assert base.initial_state != overridden.initial_state

    @pytest.mark.parametrize("kind", ["random", "random-symmetric"])
    def test_seed_override_keeps_the_network_seed(self, tmp_path, kind):
        doc = dict(MINIMAL, network={"type": kind, "edge_probability": 0.6, "seed": 3})
        path = write_config(tmp_path, doc)
        np.testing.assert_array_equal(load_config(path, seed_override=5).network.W, load_config(path).network.W)

    def test_sweep_section(self, tmp_path):
        doc = dict(
            MINIMAL,
            sweep={"r": [1.5, 2.0], "alpha": [1 / 3], "beta": [1 / 3], "trials": 5},
        )
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.sweep_grid == {"r": [1.5, 2.0], "alpha": [1 / 3], "beta": [1 / 3]}
        assert cfg.sweep_trials == 5


class TestNetworkSection:
    def test_inline_matrix(self, tmp_path):
        doc = {
            "params": {"n": 2, "r": 1.5, "alpha": 1 / 3, "beta": 1 / 3},
            "network": {"type": "inline", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
        }
        cfg = load_config(write_config(tmp_path, doc))
        np.testing.assert_array_equal(cfg.network.W, [[0.0, 1.0], [1.0, 0.0]])

    def test_inline_with_normalise(self, tmp_path):
        doc = {
            "params": {"n": 2, "r": 1.5, "alpha": 1 / 3, "beta": 1 / 3},
            "network": {"type": "inline", "matrix": [[0.0, 2.0], [3.0, 0.0]], "normalise": True},
        }
        cfg = load_config(write_config(tmp_path, doc))
        np.testing.assert_array_equal(cfg.network.W, [[0.0, 1.0], [1.0, 0.0]])

    def test_file_network_relative_to_config_dir(self, tmp_path):
        (tmp_path / "net.edges").write_text("1 2 1.0\n2 1 1.0\n")
        doc = {
            "params": {"n": 2, "r": 1.5, "alpha": 1 / 3, "beta": 1 / 3},
            "network": {"type": "file", "path": "net.edges"},
        }
        cfg = load_config(write_config(tmp_path, doc))
        np.testing.assert_array_equal(cfg.network.W, [[0.0, 1.0], [1.0, 0.0]])

    def test_grid_dimensions_must_match_n(self, tmp_path):
        doc = {
            "params": {"n": 4, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3},
            "network": {"type": "grid", "rows": 2, "cols": 3},
        }
        with pytest.raises(ConfigError, match="2x3"):
            load_config(write_config(tmp_path, doc))

    def test_random_network_types(self, tmp_path):
        for kind in ("random", "random-symmetric"):
            doc = {
                "params": {"n": 5, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3},
                "network": {"type": kind, "edge_probability": 0.6, "seed": 4},
            }
            cfg = load_config(write_config(tmp_path, doc))
            assert cfg.network.n == 5
            assert cfg.network.is_irreducible

    def test_node_count_mismatch(self, tmp_path):
        doc = {
            "params": {"n": 3, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3},
            "network": {"type": "inline", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
        }
        with pytest.raises(ConfigError, match="network has 2 nodes but params.n = 3"):
            load_config(write_config(tmp_path, doc))

    def test_unknown_type(self, tmp_path):
        doc = dict(MINIMAL, network={"type": "star"})
        with pytest.raises(ConfigError, match="unknown network type"):
            load_config(write_config(tmp_path, doc))


class TestRejections:
    def test_return_factor_at_group_size_rejected(self, tmp_path):
        doc = {"params": {"n": 4, "r": 4.0, "alpha": 1 / 3, "beta": 1 / 3}}
        with pytest.raises(ConfigError, match="1 < r < n"):
            load_config(write_config(tmp_path, doc))

    def test_underweight_player_named(self, tmp_path):
        doc = {
            "params": {
                "n": 3,
                "r": 2.0,
                "alpha": [0.3, 1 / 3, 1 / 3],
                "beta": [0.3, 1 / 3, 1 / 3],
                "lambda": [0.3, 1 / 3, 1 / 3],
            }
        }
        with pytest.raises(ConfigError, match="player 1"):
            load_config(write_config(tmp_path, doc))

    def test_missing_required_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="params.r is required"):
            load_config(write_config(tmp_path, {"params": {"n": 4, "alpha": 0.3, "beta": 0.3}}))
        with pytest.raises(ConfigError, match="params.alpha is required"):
            load_config(write_config(tmp_path, {"params": {"n": 4, "r": 2.0, "beta": 0.3}}))
        with pytest.raises(ConfigError, match="missing params"):
            load_config(write_config(tmp_path, {"network": {"type": "complete"}}))

    def test_wrong_length_list(self, tmp_path):
        doc = {"params": {"n": 4, "r": 2.0, "alpha": [0.3, 0.3], "beta": 1 / 3}}
        with pytest.raises(ConfigError, match="must have 4 entries, got 2"):
            load_config(write_config(tmp_path, doc))

    def test_json_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "params": {\n    "n": 4,,\n  }\n}\n')
        with pytest.raises(ConfigError, match=r"broken\.json:3:\d+"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(tmp_path / "nope.json"))

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="top level must be a JSON object"):
            load_config(str(path))

    def test_unknown_schedule_kind(self, tmp_path):
        doc = dict(MINIMAL, schedule={"kind": "alternating"})
        with pytest.raises(ConfigError, match="unknown schedule kind"):
            load_config(write_config(tmp_path, doc))

    def test_unknown_initial_preset(self, tmp_path):
        doc = dict(MINIMAL, initial_state="mixed")
        with pytest.raises(ConfigError, match="unknown initial_state preset"):
            load_config(write_config(tmp_path, doc))

    def test_bad_run_budget(self, tmp_path):
        doc = dict(MINIMAL, run={"max_steps": 0})
        with pytest.raises(ConfigError, match="max_steps"):
            load_config(write_config(tmp_path, doc))
        doc = dict(MINIMAL, run={"fixed_point_tol": -1e-9})
        with pytest.raises(ConfigError, match="fixed_point_tol"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize(
        "section, value, field",
        [
            ("sweep", {"r": 2.0, "alpha": [1 / 3], "beta": [1 / 3]}, "sweep.r must be a list of numbers"),
            ("sweep", {"r": [2.0], "alpha": [1 / 3], "beta": ["x"]}, "sweep.beta must be a list of numbers"),
            ("sweep", {"r": [2.0], "alpha": [1 / 3], "beta": [1 / 3], "trials": [2]}, "sweep.trials"),
            ("schedule", {"seed": [1]}, "schedule.seed"),
            ("schedule", {"seed": float("inf")}, "schedule.seed"),
            ("run", {"max_steps": float("inf")}, "run.max_steps"),
            ("initial_state", {"preset": "random", "seed": {}}, "initial_state.seed"),
            ("network", {"type": "random", "seed": [3]}, "network.seed must be an integer"),
            # a fraction is refused, not truncated
            ("params", {"n": 4.9, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3}, "params.n must be an integer, got 4.9"),
            ("run", {"max_steps": 2.9}, "run.max_steps must be an integer, got 2.9"),
            ("schedule", {"seed": 2.5}, "schedule.seed must be an integer, got 2.5"),
            ("sweep", {"r": [2.0], "alpha": [1 / 3], "beta": [1 / 3], "trials": 2.5}, "sweep.trials must be an integer, got 2.5"),
            ("network", {"type": "grid", "rows": 2.5, "cols": 2}, "network.rows must be an integer, got 2.5"),
            ("network", {"type": "grid", "rows": 2, "cols": 1.5}, "network.cols must be an integer, got 1.5"),
            ("network", {"type": "random", "seed": 2.5}, "network.seed must be an integer, got 2.5"),
            ("network", {"type": "random-symmetric", "seed": 0.5}, "network.seed must be an integer, got 0.5"),
            ("initial_state", {"preset": "random", "seed": 2.5}, "initial_state.seed must be an integer, got 2.5"),
            ("initial_state", {"x": [0.7, 1, 1, 1], "y": [0.5] * 4}, "initial_state: player 1: action must be 0 or 1, got 0.7"),
            # a value of the wrong JSON type is refused, not converted
            ("params", {"n": 4, "r": "2.0", "alpha": 1 / 3, "beta": 1 / 3}, "params.r must be a number, got '2.0'"),
            ("params", {"n": 4, "r": 2.0, "alpha": ["0.25"] * 4, "beta": 0.25}, "params.alpha must be a list of numbers"),
            ("run", {"max_steps": True}, "run.max_steps must be an integer, got True"),
            ("run", {"fixed_point_tol": "1e-10"}, "run.fixed_point_tol must be a number, got '1e-10'"),
            ("schedule", {"seed": True}, "schedule.seed must be an integer, got True"),
            ("network", {"type": "random", "edge_probability": True}, "network.edge_probability must be a number, got True"),
            ("network", {"type": "random", "require_irreducible": "no"}, "network.require_irreducible must be true or false, got 'no'"),
            ("network", {"type": "inline", "matrix": [[0, 2, 2, 2]] * 4, "normalise": "false"}, "network.normalise must be true or false, got 'false'"),
            ("sweep", {"r": ["2.5", True], "alpha": [1 / 3], "beta": [1 / 3]}, "sweep.r must be a list of numbers"),
            ("initial_state", {"x": [True, False, True, False], "y": [0.5] * 4}, "initial_state.x must be a list of numbers"),
            ("initial_state", {"x": [1, 0, 1], "y": [0.5] * 3}, "initial_state.x must have 4 entries, got 3"),
            ("initial_state", {"x": [1, 0, 1, 0], "y": [0.5] * 4, "seed": 3}, "unknown key initial_state.seed; use preset, x, y"),
            # a key that the chosen branch does not read is refused
            ("params", {"n": 4, "r": 2.0, "alpha": 0.25, "beta": 0.25, "lambda": 0.5, "lam": 0.5}, "unknown key params.lam"),
            ("initial_state", {"preset": "random", "x": [1, 0, 1, 0]}, "unknown key initial_state.x; use preset, seed"),
            ("network", {"type": "inline"}, "network.matrix is required"),
            ("network", {"type": "file"}, "network.path is required"),
            ("network", {"type": "file", "path": "net.edges", "format": ["edge-list"]}, r"network.format must be a string, got \['edge-list'\]"),
            ("network", {"type": "file", "path": "net.edges", "format": {"name": "csv"}}, r"network.format must be a string, got \{'name': 'csv'\}"),
            ("network", {"type": "file", "path": ["net.edges"]}, r"network.path must be a string, got \['net.edges'\]"),
            ("network", {"type": "grid", "cols": 2}, "network.rows is required"),
            ("network", {"seed": 1}, "network.type is required"),
            ("params", [4, 2.0], "params must be an object"),
            ("params", {"n": 4, "r": 2.0, "alpha": "0.25", "beta": 0.25}, "params.alpha must be a number or a list of 4 numbers"),
            ("network", {"type": "inline", "matrix": "0,1;1,0"}, "network.matrix must be a list of rows"),
            ("initial_state", 5, "initial_state must be a preset name or an object"),
            ("initial_state", {"x": [1, 0, 1, 0]}, "initial_state object needs either"),
            # each inline row is held to the length of the first
            ("network", {"type": "inline", "matrix": [[0, 1], [1]]}, "network.matrix row 2 must have 2 entries, got 1"),
            ("network", {"type": "inline", "matrix": [[0, 1, 1, 1], [1, 0, 1, 1, 1]]}, "network.matrix row 2 must have 4 entries, got 5"),
            ("network", {"type": "inline", "matrix": [[0, 1], [1, "0"]]}, "network.matrix row 2 must be a list of numbers"),
        ],
    )
    def test_malformed_value_names_field(self, tmp_path, section, value, field):
        doc = dict(MINIMAL, **{section: value})
        with pytest.raises(ConfigError, match=field):
            load_config(write_config(tmp_path, doc))

    def test_integral_floats_read_as_integers(self, tmp_path):
        as_ints = dict(
            MINIMAL,
            params={"n": 4, "r": 2.0, "alpha": 1 / 3, "beta": 1 / 3},
            network={"type": "grid", "rows": 2, "cols": 2},
            schedule={"kind": "shuffled-rounds", "seed": 3},
            initial_state={"x": [1, 0, 1, 0], "y": [0.5] * 4},
            run={"max_steps": 10},
            sweep={"r": [2.0], "alpha": [1 / 3], "beta": [1 / 3], "trials": 5},
        )
        as_floats = dict(
            as_ints,
            params=dict(as_ints["params"], n=4.0),
            network={"type": "grid", "rows": 2.0, "cols": 2.0},
            schedule={"kind": "shuffled-rounds", "seed": 3.0},
            initial_state={"x": [1.0, 0.0, 1.0, 0.0], "y": [0.5] * 4},
            run={"max_steps": 10.0},
            sweep=dict(as_ints["sweep"], trials=5.0),
        )
        want = load_config(write_config(tmp_path, as_ints))
        got = load_config(write_config(tmp_path, as_floats))
        assert type(got.params.n) is int and got.params.n == 4
        assert type(got.max_steps) is int and got.max_steps == 10
        assert type(got.sweep_trials) is int and got.sweep_trials == 5
        assert got.schedule == want.schedule
        assert got.initial_state == want.initial_state
        np.testing.assert_array_equal(got.network.W, want.network.W)
        for network in ({"type": "random", "seed": 2.0}, {"type": "random-symmetric", "seed": 2.0}):
            got = load_config(write_config(tmp_path, dict(MINIMAL, network=network)))
            want = load_config(write_config(tmp_path, dict(MINIMAL, network=dict(network, seed=2))))
            np.testing.assert_array_equal(got.network.W, want.network.W)

    def test_config_error_is_value_error(self):
        assert issubclass(ConfigError, ValueError)
