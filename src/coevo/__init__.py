"""Coupled action-opinion dynamics on influence networks.

Players in a public goods game hold a binary action (cooperate or defect) and
a continuous opinion; both coevolve under asynchronous myopic best-response
revisions. The package provides the payoff model, the discrete-time dynamics,
exact equilibrium analysis at small scale, and a CLI for reproducible
experiments.

Each submodule is imported the first time one of its names is read, so
``import coevo`` loads no submodule and ``load_config`` loads only ``config``,
``model`` and ``networks``.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

#: Each public name, in export order, and the submodule that defines it.
_SOURCES = {
    "DISCRIMINANT_TIE_TOL": "model", "ROW_SUM_TOL": "model", "WEIGHT_SUM_TOL": "model",
    "BestResponseSet": "model", "ModelParams": "model", "Network": "model", "SystemState": "model",
    "best_response": "model", "discriminant": "model", "opinion_payoff": "model", "pgg_payoff": "model",
    "social_term": "model", "total_payoff": "model", "SCHEDULE_KINDS": "model", "RevisionSchedule": "model",
    "StateClass": "dynamics", "Trajectory": "dynamics", "classify_state": "dynamics",
    "is_fixed_point": "dynamics", "make_schedule": "model", "potential": "dynamics",
    "potential_matrix": "dynamics", "potential_matrix_is_positive_definite": "dynamics",
    "potential_quadratic": "dynamics", "run": "dynamics", "step": "dynamics",
    "CONDITION_ALL_COOPERATION_EXISTS": "equilibria", "CONDITION_ALL_DEFECTION_UNIQUE": "equilibria",
    "ConditionReport": "equilibria", "Equilibrium": "equilibria", "EquilibriumReport": "equilibria",
    "NashCheck": "equilibria", "SweepCell": "equilibria", "SweepTable": "equilibria",
    "check_all_cooperation_exists": "equilibria", "check_all_defection_unique": "equilibria",
    "enumerate_equilibria": "equilibria", "solve_opinion_equilibrium": "equilibria",
    "sweep": "equilibria", "verify_nash": "equilibria",
    "complete_network": "networks", "grid_network": "networks", "load_network": "networks",
    "random_network": "networks", "random_symmetric_network": "networks", "ring_network": "networks",
    "save_network": "networks",
    "ConfigError": "config", "ExperimentConfig": "config", "load_config": "config",
    "emit_trajectory": "io", "load_trajectory": "io",
}

# every public name, in the order above; the submodules are not among them
__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    """A public name, or a submodule that defines some, imported on first use and then kept."""
    if name in _SOURCES:
        value = getattr(_import_module(f".{_SOURCES[name]}", __name__), name)
    elif name in _SOURCES.values():
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return __all__
