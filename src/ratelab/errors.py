"""Exception types shared across the package; keep each message self-contained.

``cli.main`` exits 65 with ``error[config]`` on ConfigError,
EquilibriumBracketError and MarginOverflowError, 70 with ``error[diverged]``
on IntegrationDivergedError, and 70 with ``error[runtime]`` on every other
RatelabError.
"""


class RatelabError(Exception):
    """Base class for all errors raised deliberately by this package."""


class ModelDomainError(RatelabError, ValueError):
    """An argument left the domain of the model (nonpositive rate, capacity, ...)."""


class CapacityExhaustedError(ModelDomainError):
    """The capacity law evaluated to a nonpositive capacity."""


class MarginOverflowError(ModelDomainError):
    """A margin term at a rate of the configured range exceeds the float range."""


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
