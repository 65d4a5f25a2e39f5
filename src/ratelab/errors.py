"""Exception types shared across the package; keep each message self-contained.

Each type carries the ``tag`` and ``exit_code`` with which ``ratelab``
reports it: ``cli.main`` prints ``error[<tag>]: <message>`` and exits
``exit_code``, and a sweep exits with the largest code among its failed values.
A condition gets a type of its own only when code catches it apart, it has
its own tag or code, or it reaches a report or a sweep row as itself.
"""


class RatelabError(Exception):
    """Base class for all errors raised deliberately by this package."""

    tag, exit_code = "runtime", 70


class ModelDomainError(RatelabError, ValueError):
    """An argument outside the domain of the function it was passed to: a
    nonpositive rate or capacity, a step that the delays are not whole
    multiples of, or a time outside the recorded run."""


class MarginOverflowError(ModelDomainError):
    """A margin term at a rate of the configured range exceeds the float range."""

    tag, exit_code = "config", 65


class IntegrationDivergedError(RatelabError, RuntimeError):
    """The integration produced a non-finite or out-of-domain state."""

    tag = "diverged"

    def __init__(self, message: str, t_fail: float):
        super().__init__(message)
        self.t_fail = t_fail


class EquilibriumBracketError(RatelabError, ValueError):
    """The equilibrium residual does not change sign on the search bracket."""

    tag, exit_code = "config", 65


class ConfigError(RatelabError, ValueError):
    """A scenario file failed to parse or violated a validation rule."""

    tag, exit_code = "config", 65
