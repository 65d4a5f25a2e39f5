"""ratelab: a numerical laboratory for delayed rate-based congestion control
with a state-dependent link capacity.

Simulates the scalar delayed rate-update law, certifies global convergence
with a delay-independent margin check, monitors an energy functional along
trajectories, and classifies run outcomes.
"""

import importlib

from .config import load_scenario, snap_step
from .errors import ConfigError, IntegrationDivergedError, ModelDomainError, RatelabError
from .model import CapacityLaw, ModelParams, capacity

__version__ = "0.1.0"

# name -> module that defines it, imported on the name's first use (PEP 562):
# importing ratelab and loading a scenario compile only config, errors and model
_LAZY = {name: module for module, names in (
    ("analysis", "CERTIFIED CONVERGED NOT_CERTIFIED OSCILLATING SATURATED UNDETERMINED "
                 "check_stability classify lyapunov_values solve_equilibrium"),
    ("dde", "Trajectory integrate"), ("scenario", "run_scenario sweep")) for name in names.split()}
__all__ = ["ConfigError", "IntegrationDivergedError", "ModelDomainError", "RatelabError",
           "CapacityLaw", "ModelParams", "capacity", "load_scenario", "snap_step", *_LAZY]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
