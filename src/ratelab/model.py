"""Single-source/single-link rate control model.

The source adjusts its rate x from delayed feedback:

    dx/dt = kappa * (x(t)**-a - h * x(t-tau)**(b+1) * c(t-T)**-b)
    c(t)  = g(x(t))

which is the primal rate update kappa*(x*U'(x) - x_d*p(x_d, c_d)) for the
utility U(x) = -1/(a*x**a) and the price p(x, c) = h*(x/c)**b.  The module
holds the parameter records and the capacity law; the right-hand side and
its projection at the rate bounds live in :mod:`ratelab.dde`, beside the
loop that evaluates them.  :func:`capacity` raises CapacityExhaustedError
for a nonpositive capacity rather than letting a power propagate NaN.
"""

import math
from typing import NamedTuple

from .errors import CapacityExhaustedError, ModelDomainError

# Relative tolerance for "delay is an integer multiple of the step".
DELAY_MULTIPLE_RTOL = 1e-9


class _ModelFields(NamedTuple):
    kappa: float
    a: float
    b: float
    tau: float
    T_delay: float
    h_gain: float = 1.0
    x_min: float = 1e-3
    x_max: float = 1e3

    @property
    def max_delay(self) -> float:
        return max(self.tau, self.T_delay)


class ModelParams(_ModelFields):
    """Scalar constants of the rate update law, an immutable NamedTuple
    checked at construction (``_replace`` and unpickling included).

    ``tau`` is the total round-trip delay acting on the rate feedback and
    ``T_delay`` the (shorter) delay of the capacity information.  The
    checks are the model's assumption A1 (positive finite constants and
    tau >= T_delay) and finite rate bounds 0 < x_min < x_max.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, *args, **kwargs):
        p = super().__new__(cls, *args, **kwargs)
        for name in ("kappa", "a", "b", "tau", "T_delay", "h_gain"):
            v = getattr(p, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ModelDomainError(f"{name} must be a positive finite number, got {v!r}")
        if not (0 < p.x_min < p.x_max < math.inf):
            raise ModelDomainError(
                f"rate bounds must satisfy 0 < x_min < x_max < inf, got [{p.x_min}, {p.x_max}]"
            )
        if p.tau < p.T_delay:
            raise ModelDomainError(
                f"assumption A1 requires tau >= T, got tau = {p.tau}, T = {p.T_delay}"
            )
        return p


class _LawFields(NamedTuple):
    c0: float
    slope: float = 0.0

    def value(self, x):
        """Raw g(x); may be <= 0.  Use :func:`capacity` when positivity is required.

        Accepts scalars or numpy arrays.
        """
        return self.c0 - self.slope * x

    def derivative(self) -> float:
        """g'(x), a constant; +0.0, not -0.0, for slope 0, so that it prints as 0."""
        return 0.0 - self.slope


class CapacityLaw(_LawFields):
    """Link capacity as a function of the instantaneous source rate, c = g(x),
    an immutable NamedTuple checked at construction like :class:`ModelParams`.

    The law is g(x) = c0 - slope*x with c0 > 0 and slope >= 0, both finite:
    the adaptive-virtual-queue controller, or a constant capacity c0 when
    slope is 0.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, *args, **kwargs):
        law = super().__new__(cls, *args, **kwargs)
        if not (math.isfinite(law.c0) and law.c0 > 0):
            raise ModelDomainError(f"capacity intercept/level must be positive, got {law.c0}")
        if not (math.isfinite(law.slope) and law.slope >= 0):
            raise ModelDomainError(f"capacity slope must be finite and >= 0, got {law.slope}")
        return law


class Equilibrium(NamedTuple):
    """Fixed point of the rate dynamics: c_star = g(x_star) and the update
    vanishes.  ``residual`` is the fixed-point defect relative to c_star."""

    x_star: float
    c_star: float
    residual: float


def capacity(law: CapacityLaw, x: float) -> float:
    """g(x) with positivity enforced."""
    c = law.value(x)
    if not c > 0:
        raise CapacityExhaustedError(f"capacity law returned c = {c} <= 0 at x = {x}")
    return c
