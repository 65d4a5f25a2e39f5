"""ratelab: a numerical laboratory for delayed rate-based congestion control
with a state-dependent link capacity.

Simulates the scalar delayed rate-update law, certifies global convergence
with a delay-independent margin check, monitors an energy functional along
trajectories, and classifies run outcomes.
"""

from .analysis import (
    CERTIFIED,
    CONVERGED,
    NOT_CERTIFIED,
    OSCILLATING,
    SATURATED,
    UNDETERMINED,
    AssumptionViolation,
    Classification,
    StabilityReport,
    check_stability,
    classify,
    lyapunov_value,
    lyapunov_values,
    solve_equilibrium,
    stability_margin,
    validate_assumptions,
)
from .dde import HistoryBuffer, Trajectory, integrate, lookup, make_history
from .errors import (
    CapacityExhaustedError,
    ConfigError,
    EquilibriumBracketError,
    GridMismatchError,
    HistoryRangeError,
    HorizonError,
    IntegrationDivergedError,
    ModelDomainError,
    RatelabError,
)
from .model import (
    CapacityLaw,
    Equilibrium,
    ModelParams,
    capacity,
    clamp,
    price,
    rhs,
    utility_derivative,
)
from .scenario import (
    RunResult,
    ScenarioConfig,
    SweepReport,
    SweepRow,
    load_scenario,
    run_scenario,
    snap_step,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolation",
    "CapacityExhaustedError",
    "CapacityLaw",
    "CERTIFIED",
    "Classification",
    "ConfigError",
    "CONVERGED",
    "Equilibrium",
    "EquilibriumBracketError",
    "GridMismatchError",
    "HistoryBuffer",
    "HistoryRangeError",
    "HorizonError",
    "IntegrationDivergedError",
    "ModelDomainError",
    "ModelParams",
    "NOT_CERTIFIED",
    "OSCILLATING",
    "RatelabError",
    "RunResult",
    "SATURATED",
    "ScenarioConfig",
    "StabilityReport",
    "SweepReport",
    "SweepRow",
    "Trajectory",
    "UNDETERMINED",
    "capacity",
    "check_stability",
    "clamp",
    "classify",
    "integrate",
    "load_scenario",
    "lookup",
    "lyapunov_value",
    "lyapunov_values",
    "make_history",
    "price",
    "rhs",
    "run_scenario",
    "snap_step",
    "solve_equilibrium",
    "sweep",
    "stability_margin",
    "utility_derivative",
    "validate_assumptions",
]
