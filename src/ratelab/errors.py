"""Exception types shared across the package.

The CLI maps each class to a distinct exit code, so keep the hierarchy flat
and the messages self-contained.
"""


class RatelabError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ModelDomainError(RatelabError, ValueError):
    """An argument left the domain of the model (nonpositive rate, capacity, ...)."""


class CapacityExhaustedError(ModelDomainError):
    """The capacity law evaluated to a nonpositive capacity."""


class HistoryRangeError(RatelabError, ValueError):
    """A time query fell outside the recorded span."""


class GridMismatchError(RatelabError, ValueError):
    """Step/delay/span values are not commensurable with the sample grid."""


class IntegrationDivergedError(RatelabError, RuntimeError):
    """The integration produced a non-finite or out-of-domain state."""

    def __init__(self, message: str, t_fail: float):
        super().__init__(message)
        self.t_fail = t_fail


class EquilibriumBracketError(RatelabError, ValueError):
    """The equilibrium residual does not change sign on the search bracket."""


class HorizonError(RatelabError, ValueError):
    """A trajectory is too short for the requested analysis window."""


class ConfigError(RatelabError, ValueError):
    """A scenario file failed to parse or violated a validation rule."""
