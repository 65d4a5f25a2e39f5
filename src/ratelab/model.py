"""Single-source/single-link rate control model.

The source adjusts its rate x from delayed feedback:

    dx/dt = kappa * (x(t)**-a - h * x(t-tau)**(b+1) * c(t-T)**-b)
    c(t)  = g(x(t))

which is the primal rate update kappa*(x*U'(x) - x_d*p(x_d, c_d)) for the
utility U(x) = -1/(a*x**a) and the price p(x, c) = h*(x/c)**b.  The module
holds the parameter records and the capacity law; the right-hand side and
its projection at the rate bounds live in :mod:`ratelab.dde`, beside the
loop that evaluates them.  :func:`capacity` raises ModelDomainError for a
nonpositive capacity rather than letting a power propagate NaN, and
:func:`whole_steps` is the one test that a delay is a whole number of steps.
"""

import sys
from typing import NamedTuple

from .errors import ModelDomainError

# Relative tolerance for "delay is an integer multiple of the step".
DELAY_MULTIPLE_RTOL = 1e-9

# The largest finite float: every number argument lies within it (NaN and an
# int past the float range fail the same comparison as an infinite value).
FLOAT_MAX = sys.float_info.max


def is_number(v) -> bool:
    """An int or a float (numpy's float64 included), never a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


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
    tau >= T_delay) and finite rate bounds 0 < x_min < x_max; every field is
    a number (:func:`is_number`).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, *args, **kwargs):
        p = super().__new__(cls, *args, **kwargs)
        for name, v in zip(("kappa", "a", "b", "tau", "T_delay", "h_gain"), p):
            # is_number inline, as a bool is an int: False fails 0 < v
            if not (isinstance(v, (int, float)) and v is not True and 0 < v <= FLOAT_MAX):
                raise ModelDomainError(f"{name} must be a positive finite number, got {v!r}")
        if not (is_number(p.x_min) and is_number(p.x_max) and 0 < p.x_min < p.x_max <= FLOAT_MAX):
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

    The law is g(x) = c0 - slope*x with c0 > 0 and slope >= 0, both finite
    numbers (:func:`is_number`): the adaptive-virtual-queue controller, or a
    constant capacity c0 when slope is 0.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, *args, **kwargs):
        law = super().__new__(cls, *args, **kwargs)
        if not (is_number(law.c0) and 0 < law.c0 <= FLOAT_MAX):
            raise ModelDomainError(f"capacity intercept/level must be positive, got {law.c0}")
        if not (is_number(law.slope) and 0 <= law.slope <= FLOAT_MAX):
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
        raise ModelDomainError(f"capacity law returned c = {c} <= 0 at x = {x}")
    return c


def whole_steps(span: float, step: float) -> int:
    """The number of ``step``s in a positive ``span`` when it is whole to within
    the relative DELAY_MULTIPLE_RTOL, and 0 (not whole) otherwise."""
    k = span / step
    n = round(k)
    return n if abs(k - n) <= DELAY_MULTIPLE_RTOL * max(1.0, k) else 0
