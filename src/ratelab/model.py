"""Single-source/single-link rate control model.

The source adjusts its rate x from delayed feedback:

    dx/dt = kappa * (x(t)**-a - h * x(t-tau)**(b+1) * c(t-T)**-b)
    c(t)  = g(x(t))

which is the primal rate update kappa*(x*U'(x) - x_d*p(x_d, c_d)) for the
utility U(x) = -1/(a*x**a) and the price p(x, c) = h*(x/c)**b.  The module
holds the parameter records, the capacity law and the fused projected
right-hand side (:func:`stage_kernels`): the integrator repeats its
arithmetic inline for interior stages and calls it for the rest, where its
checks and projection apply.  All powers act on strictly positive bases;
nonpositive bases raise ModelDomainError rather than propagating NaN.
"""

import math
from typing import NamedTuple

from .errors import CapacityExhaustedError, ModelDomainError

AFFINE = "affine"
CONSTANT = "constant"


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
    tau >= T_delay) and the rate bounds 0 < x_min < x_max.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, *args, **kwargs):
        p = super().__new__(cls, *args, **kwargs)
        for name in ("kappa", "a", "b", "tau", "T_delay", "h_gain"):
            v = getattr(p, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ModelDomainError(f"{name} must be a positive finite number, got {v!r}")
        if not (0 < p.x_min < p.x_max):
            raise ModelDomainError(
                f"rate bounds must satisfy 0 < x_min < x_max, got [{p.x_min}, {p.x_max}]"
            )
        if p.tau < p.T_delay:
            raise ModelDomainError(
                f"assumption A1 requires tau >= T, got tau = {p.tau}, T = {p.T_delay}"
            )
        return p


class _LawFields(NamedTuple):
    kind: str
    c0: float
    slope: float = 0.0

    def value(self, x):
        """Raw g(x); may be <= 0.  Use :func:`capacity` when positivity is required.

        Accepts scalars or numpy arrays (slope is 0 for the constant form).
        """
        return self.c0 - self.slope * x

    def derivative(self) -> float:
        """g'(x), constant for both supported forms."""
        return -self.slope if self.kind == AFFINE else 0.0


class CapacityLaw(_LawFields):
    """Link capacity as a function of the instantaneous source rate, c = g(x),
    an immutable NamedTuple checked at construction like :class:`ModelParams`.

    Two forms are supported: ``affine`` with g(x) = c0 - slope*x (slope > 0,
    strictly decreasing) and ``constant`` with g(x) = c0, whose slope is
    always 0.0.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks

    def __new__(cls, *args, **kwargs):
        law = super().__new__(cls, *args, **kwargs)
        if law.kind not in (AFFINE, CONSTANT):
            raise ModelDomainError(f"unknown capacity law kind {law.kind!r}")
        if not (math.isfinite(law.c0) and law.c0 > 0):
            raise ModelDomainError(f"capacity intercept/level must be positive, got {law.c0}")
        if law.kind == AFFINE and not (math.isfinite(law.slope) and law.slope > 0):
            raise ModelDomainError(
                f"affine capacity law must be strictly decreasing: slope > 0, got {law.slope}"
            )
        return super().__new__(cls, CONSTANT, law.c0) if law.kind == CONSTANT else law


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


def _require_positive(name: str, v: float) -> None:
    # "rhs" names the right-hand side; the text reaches stderr and sweep.csv
    if not v > 0:
        raise ModelDomainError(f"rhs requires {name} > 0, got {v}")


def stage_kernels(p: ModelParams, law: CapacityLaw):
    """The projected right-hand side, split for a fused RK stage loop.

    Returns ``(flow, slope)``:

    - ``flow(x_now, x_delayed, x_cap)`` is the delayed price flow
      h*x_d**(b+1)*c_d**-b at c_d = g(x_cap), after the positivity checks
      in their order (capacity, then x_now, then x_delayed);
    - ``slope(x_now, f)`` is kappa*(x_now**-a - f) after the x_now check,
      projected at the rate bounds: no outward motion at x_min/x_max.

    Stages that share their delayed arguments can share one flow.  The
    constants are bound once; a failing check raises through
    :func:`capacity` or :func:`_require_positive`, so errors read the same
    from every stage.

    :func:`dde.integrate` writes the no-branch arithmetic of both closures
    inline, with the same expressions in the same association, and calls
    them only for a stage that fails a check or sits at a rate bound.  Its
    inline guard for the grid-time stage (k4 and the recorded derivative)
    tests the capacity and x_now but not x_delayed: that rate is a recorded
    sample, positive by construction (init_x > 0, later samples projected
    into [x_min, x_max] with x_min > 0), and ``flow`` still checks it on the
    fallback path.  A change to either closure must change that inline copy
    with it;
    ``tests/test_dde.py`` compares the integrator bit for bit with a plain
    loop over the formulas of ``tests/oracle.py`` and catches a drift.
    """
    kappa, neg_a, x_min, x_max = p.kappa, -p.a, p.x_min, p.x_max
    h, b_plus_1, neg_b = p.h_gain, p.b + 1.0, -p.b
    c0, slope_g = law.c0, law.slope

    def flow(x_now: float, x_delayed: float, x_cap: float) -> float:
        c_delayed = c0 - slope_g * x_cap
        if not (c_delayed > 0 and x_now > 0 and x_delayed > 0):
            capacity(law, x_cap)
            _require_positive("x_now", x_now)
            _require_positive("x_delayed", x_delayed)
        return h * x_delayed ** b_plus_1 * c_delayed ** neg_b

    def slope(x_now: float, f: float) -> float:
        if not x_now > 0:
            _require_positive("x_now", x_now)
        d = kappa * (x_now ** neg_a - f)
        if x_now >= x_max:
            return min(d, 0.0)
        if x_now <= x_min:
            return max(d, 0.0)
        return d

    return flow, slope

