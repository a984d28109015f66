"""Coupled action-opinion dynamics on influence networks.

Players in a public goods game hold a binary action (cooperate or defect) and
a continuous opinion; both coevolve under asynchronous myopic best-response
revisions. The package provides the payoff model, the discrete-time dynamics,
exact equilibrium analysis at small scale, and a CLI for reproducible
experiments.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .model import (
    DISCRIMINANT_TIE_TOL,
    ROW_SUM_TOL,
    WEIGHT_SUM_TOL,
    BestResponseSet,
    ModelParams,
    Network,
    SystemState,
    best_response,
    discriminant,
    opinion_payoff,
    pgg_payoff,
    social_term,
    total_payoff,
)
from .dynamics import (
    SCHEDULE_KINDS,
    RevisionSchedule,
    StateClass,
    Trajectory,
    classify_state,
    is_fixed_point,
    make_schedule,
    potential,
    potential_matrix,
    potential_matrix_is_positive_definite,
    potential_quadratic,
    run,
    step,
)
from .equilibria import (
    CONDITION_ALL_COOPERATION_EXISTS,
    CONDITION_ALL_DEFECTION_UNIQUE,
    ConditionReport,
    Equilibrium,
    EquilibriumReport,
    NashCheck,
    SweepCell,
    SweepTable,
    check_all_cooperation_exists,
    check_all_defection_unique,
    enumerate_equilibria,
    solve_opinion_equilibrium,
    sweep,
    verify_nash,
)
from .networks import (
    complete_network,
    grid_network,
    load_network,
    random_network,
    random_symmetric_network,
    ring_network,
    save_network,
)
from .config import ConfigError, ExperimentConfig, load_config
from .io import emit_trajectory, load_trajectory

# every public name imported above, in import order; the submodules are not among them
__all__ = ["__version__", *(k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType))]
