"""Exception types shared across the package; keep each message self-contained.

Each type carries the ``tag`` and ``exit_code`` with which ``ratelab``
reports it: ``cli.main`` prints ``error[<tag>]: <message>`` and exits
``exit_code``, and a sweep exits with the largest code among its failed values.
"""


class RatelabError(Exception):
    """Base class for all errors raised deliberately by this package."""

    tag, exit_code = "runtime", 70


class ModelDomainError(RatelabError, ValueError):
    """An argument left the domain of the model (nonpositive rate, capacity, ...)."""


class CapacityExhaustedError(ModelDomainError):
    """The capacity law evaluated to a nonpositive capacity."""


class MarginOverflowError(ModelDomainError):
    """A margin term at a rate of the configured range exceeds the float range."""

    tag, exit_code = "config", 65


class HistoryRangeError(RatelabError, ValueError):
    """A time query fell outside the recorded span."""


class GridMismatchError(RatelabError, ValueError):
    """Step/delay/span values are not commensurable with the sample grid."""


class IntegrationDivergedError(RatelabError, RuntimeError):
    """The integration produced a non-finite or out-of-domain state."""

    tag = "diverged"

    def __init__(self, message: str, t_fail: float):
        super().__init__(message)
        self.t_fail = t_fail


class EquilibriumBracketError(RatelabError, ValueError):
    """The equilibrium residual does not change sign on the search bracket."""

    tag, exit_code = "config", 65


class HorizonError(RatelabError, ValueError):
    """A trajectory is too short for the requested analysis window."""


class ConfigError(RatelabError, ValueError):
    """A scenario file failed to parse or violated a validation rule."""

    tag, exit_code = "config", 65
