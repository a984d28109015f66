"""The package's public surface: the names ``coevo`` exports, in their order."""

import types

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
