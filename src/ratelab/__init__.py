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
    check_stability,
    classify,
    lyapunov_values,
    solve_equilibrium,
    validate_assumptions,
)
from .dde import Trajectory, integrate
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
from .model import CapacityLaw, ModelParams, capacity
from .scenario import load_scenario, run_scenario, snap_step, sweep

__version__ = "0.1.0"
