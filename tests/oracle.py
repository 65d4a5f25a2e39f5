"""The model written out one formula per function: the oracles that
``model.stage_kernels``, the fused loop in ``dde.integrate``,
``analysis.margin_kernel`` and ``analysis.validate_assumptions`` must match
bit for bit, in values and in error messages."""

import numpy as np

from ratelab.analysis import EPS_BAND_REL, HARD, WARNING, AssumptionViolation
from ratelab.errors import ModelDomainError
from ratelab.model import (
    AFFINE,
    CapacityLaw,
    Equilibrium,
    ModelParams,
    _require_positive,
    capacity,
)


def price_flow(x_delayed: float, c_delayed: float, p: ModelParams) -> float:
    """Delayed price flow h*x_d**(b+1)*c_d**-b, the feedback term of :func:`rhs`."""
    return p.h_gain * x_delayed ** (p.b + 1.0) * c_delayed ** -p.b


def rhs(x_now: float, x_delayed: float, c_delayed: float, p: ModelParams) -> float:
    """Rate derivative kappa*(x**-a - h*x_d**(b+1)*c_d**-b) before projection."""
    _require_positive("x_now", x_now)
    _require_positive("x_delayed", x_delayed)
    _require_positive("c_delayed", c_delayed)
    return p.kappa * (x_now ** -p.a - price_flow(x_delayed, c_delayed, p))


def clamp(x: float, dxdt: float, p: ModelParams) -> float:
    """Derivative projection at the rate bounds: no outward motion at x_min/x_max."""
    if x >= p.x_max:
        return min(dxdt, 0.0)
    if x <= p.x_min:
        return max(dxdt, 0.0)
    return dxdt


def stability_margin(x: float, p: ModelParams, law: CapacityLaw, eq: Equilibrium) -> float:
    """The margin at one rate, every term computed afresh: LHS - RHS of the
    certification inequality with c = g(x), and the analytic limit within
    EPS_BAND_REL*x_star of x_star."""
    xs, cs = eq.x_star, eq.c_star
    a, b, h = p.a, p.b, p.h_gain
    if not x > 0:
        raise ModelDomainError(f"margin requires x > 0, got {x}")
    try:
        if abs(x - xs) < EPS_BAND_REL * xs:
            lhs = a * xs ** -(a + 1.0)
            rhs = h * (
                (b + 1.0) * xs ** b * cs ** -b
                - b * xs ** (b + 1.0) * cs ** -(b + 1.0) * law.derivative()
            )
            return lhs - rhs
        c = capacity(law, x)
        lhs = (xs ** -a - x ** -a) / (x - xs)
        rhs = h * (x ** (b + 1.0) * c ** -b - xs ** (b + 1.0) * cs ** -b) / (x - xs)
    except OverflowError as exc:
        raise ModelDomainError(
            f"margin at x = {x:.6g} exceeds the float range (a = {a}, b = {b})"
        ) from exc
    return lhs - rhs


def validate_assumptions(p: ModelParams, law: CapacityLaw, x_range, grid_n: int) -> list:
    """The assumption registry with A3's g > 1 tested at every node of a
    ``numpy.linspace`` grid, the first failing node named."""
    x_lo, x_hi = x_range
    if not (x_lo < x_hi):
        raise ModelDomainError(f"range must satisfy x_lo < x_hi, got [{x_lo}, {x_hi}]")
    if not (x_lo >= p.x_min and x_hi <= p.x_max):
        raise ModelDomainError(
            f"range [{x_lo}, {x_hi}] must lie within the rate bounds "
            f"[{p.x_min}, {p.x_max}]"
        )
    if grid_n < 2:
        raise ModelDomainError(f"grid_n must be at least 2, got {grid_n}")

    violations = []
    if p.tau < p.T_delay:
        violations.append(AssumptionViolation(
            "A1", f"delay ordering violated: tau = {p.tau} < T = {p.T_delay}", HARD
        ))
    grid = np.linspace(x_lo, x_hi, grid_n)
    g_vals = law.value(grid)
    if np.any(g_vals <= 1.0):
        i = int(np.argmax(g_vals <= 1.0))
        violations.append(AssumptionViolation(
            "A3",
            f"capacity must exceed 1 on the range: g({grid[i]:.6g}) = {g_vals[i]:.6g}",
            HARD,
        ))
    if law.kind == AFFINE:
        if law.derivative() >= -1.0:
            violations.append(AssumptionViolation(
                "A3",
                f"capacity slope must satisfy g'(x) < -1, got g'(x) = "
                f"{law.derivative():.6g}",
                WARNING,
            ))
    else:
        violations.append(AssumptionViolation(
            "A3", "constant capacity law is not strictly decreasing", WARNING
        ))
    return violations
