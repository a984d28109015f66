"""The package's public surface: the names ``coevo`` exports, in their order, and the
submodules that importing it and loading a config load."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import coevo

PUBLIC_NAMES = [
    "__version__",
    "DISCRIMINANT_TIE_TOL",
    "ROW_SUM_TOL",
    "WEIGHT_SUM_TOL",
    "BestResponseSet",
    "ModelParams",
    "Network",
    "SystemState",
    "best_response",
    "discriminant",
    "opinion_payoff",
    "pgg_payoff",
    "social_term",
    "total_payoff",
    "SCHEDULE_KINDS",
    "RevisionSchedule",
    "StateClass",
    "Trajectory",
    "classify_state",
    "is_fixed_point",
    "make_schedule",
    "potential",
    "potential_matrix",
    "potential_matrix_is_positive_definite",
    "potential_quadratic",
    "run",
    "step",
    "CONDITION_ALL_COOPERATION_EXISTS",
    "CONDITION_ALL_DEFECTION_UNIQUE",
    "ConditionReport",
    "Equilibrium",
    "EquilibriumReport",
    "NashCheck",
    "SweepCell",
    "SweepTable",
    "check_all_cooperation_exists",
    "check_all_defection_unique",
    "enumerate_equilibria",
    "solve_opinion_equilibrium",
    "sweep",
    "verify_nash",
    "complete_network",
    "grid_network",
    "load_network",
    "random_network",
    "random_symmetric_network",
    "ring_network",
    "save_network",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "emit_trajectory",
    "load_trajectory",
]


def test_all_lists_the_public_names_in_order():
    assert len(PUBLIC_NAMES) == 53
    assert coevo.__all__ == PUBLIC_NAMES


def test_no_public_name_is_a_module():
    assert not [name for name in coevo.__all__ if isinstance(getattr(coevo, name), types.ModuleType)]


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from coevo import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC_NAMES)
    assert not {"io", "model", "dynamics", "equilibria", "networks", "config", "arcsum", "cli"} & set(namespace)


_COLD_CHILD = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.partition(".")[0] == "coevo")
import coevo
after_import = loaded()
for path in sys.argv[1:]:
    coevo.load_config(path)
after_load = loaded()
try:
    coevo.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
# a submodule is an attribute before anything imports it
same_schedule = coevo.dynamics.RevisionSchedule is coevo.RevisionSchedule
from coevo import io
print(json.dumps({
    "after_import": after_import,
    "after_load": after_load,
    "missing": missing,
    "io": io.__name__,
    "same_schedule": same_schedule,
}))
"""


def test_cold_import_and_load_config_load_only_what_they_need(tmp_path):
    """A fresh interpreter: `import coevo` loads no submodule, and `load_config` of a
    ring with a random start and of a random network loads only config, model and networks."""
    params = {"n": 8, "r": 2.0, "alpha": 0.4, "beta": 0.3}
    docs = [
        {"params": params, "network": {"type": "ring"}, "initial_state": {"preset": "random", "seed": 0}},
        {"params": params, "network": {"type": "random", "edge_probability": 0.5, "seed": 1}},
    ]
    paths = [tmp_path / f"{k}.json" for k in range(len(docs))]
    for path, doc in zip(paths, docs):
        path.write_text(json.dumps(doc))
    src = str(Path(coevo.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _COLD_CHILD, *map(str, paths)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "after_import": ["coevo"],
        "after_load": ["coevo", "coevo.config", "coevo.model", "coevo.networks"],
        "missing": "module 'coevo' has no attribute 'no_such_name'",
        "io": "coevo.io",
        "same_schedule": True,
    }
