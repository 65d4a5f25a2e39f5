"""The model written out one formula per function: the oracles that
``dde.flow`` and ``dde.slope``, the fused loop in ``dde.integrate``,
``analysis.margin_kernel`` and the assumption violations of
``analysis.check_stability`` must match bit for bit, in values and in error
messages; the sweep summary rules that ``scenario.format_sweep_summary``
must match line for line; the numpy tick rule that ``svgplot._ticks``
must match bit for bit; the bisection, with the residual as a nested
function, that ``analysis.solve_equilibrium`` must match bit for bit; and
the edit that turns a config back into a file's key values, which
``config.apply_params`` must match in its configs, error types and messages."""

import math

import numpy as np

from ratelab.analysis import (
    CERTIFIED,
    EPS_BAND_REL,
    HARD,
    OSCILLATING,
    WARNING,
    AssumptionViolation,
)
from ratelab.config import AFFINE, FIELDS, ScenarioConfig, build_config, config_values
from ratelab.dde import _require_positive
from ratelab.errors import (
    CapacityExhaustedError,
    ConfigError,
    EquilibriumBracketError,
    MarginOverflowError,
    ModelDomainError,
)
from ratelab.model import CapacityLaw, Equilibrium, ModelParams, capacity


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
        raise MarginOverflowError(
            f"margin at x = {x!r} exceeds the float range (a = {a}, b = {b})"
        ) from exc
    return lhs - rhs


def validate_assumptions(p: ModelParams, law: CapacityLaw, x_range, grid_n: int) -> list:
    """Assumption A3 over a range, with g > 1 tested at every node of a
    ``numpy.linspace`` grid and the first failing node named: the reference
    for ``check_stability(...).violations`` (A1 is a ModelParams invariant)."""
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
    grid = np.linspace(x_lo, x_hi, grid_n)
    g_vals = law.value(grid)
    if np.any(g_vals <= 1.0):
        i = int(np.argmax(g_vals <= 1.0))
        violations.append(AssumptionViolation(
            "A3",
            f"capacity must exceed 1 on the range: g({grid[i]:.6g}) = {g_vals[i]:.6g}",
            HARD,
        ))
    if law.derivative() >= -1.0:
        violations.append(AssumptionViolation(
            "A3",
            f"capacity slope must satisfy g'(x) < -1, got g'(x) = "
            f"{law.derivative():.6g}",
            WARNING,
        ))
    return violations


def sweep_summary(param: str, rows) -> str:
    """sweep_report.txt for ``rows`` (SweepRow records), one rule per line,
    each value compared in a loop."""
    ok = [r for r in rows if r.status == "ok"]
    largest = smallest_osc = None
    for r in ok:
        if r.verdict == CERTIFIED and (largest is None or r.value > largest):
            largest = r.value
        if r.classification == OSCILLATING and (smallest_osc is None or r.value < smallest_osc):
            smallest_osc = r.value
    upper = None  # the smallest uncertified value above the largest certified one
    for r in ok:
        if (r.verdict != CERTIFIED and largest is not None and r.value > largest
                and (upper is None or r.value < upper)):
            upper = r.value
    lines = [
        f"sweep parameter: {param}",
        f"values: {len(rows)}",
        "largest_certified: " + ("none" if largest is None else format(largest, "g")),
        "smallest_oscillating: " + ("none" if smallest_osc is None else format(smallest_osc, "g")),
    ]
    if upper is not None:
        lines.append(f"certified_boundary_bracket: ({largest:g}, {upper:g})")
    if param == "b":
        seen_uncertified = False
        for r in sorted(ok, key=lambda r: r.value):
            if r.verdict != CERTIFIED:
                seen_uncertified = True
            elif seen_uncertified:
                lines.append("warning: certification pattern is not monotone in the swept "
                             "value; flagging for review")
                break
    n_err = len(rows) - len(ok)
    if n_err:
        lines.append(f"errors: {n_err} value(s) failed; see sweep rows")
    return "\n".join(lines) + "\n"


def ticks(lo: float, hi: float) -> list[float]:
    """The plot's axis ticks as numpy computes them: a round step of 1, 2,
    2.5, 5 or 10 times a power of ten, about (hi - lo)/5, and
    ``arange(first, hi + step/2, step)`` from the first multiple of it."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    return [float(v) for v in np.arange(first, hi + 0.5 * step, step)]


def solve_equilibrium(p: ModelParams, law: CapacityLaw) -> Equilibrium:
    """Bisect g(x) - h**(1/b) * x**((a+b+1)/b) to its root in [x_min, x_max].

    The root is the unique rate at which the update law vanishes; it also
    satisfies first-order optimality U'(x*) = p(x*, c*).  The bracket is
    tightened well below the 1e-12*x_star contract so the absolute residual
    stays tiny even for steep exponents (small b).
    """
    exponent = (p.a + p.b + 1.0) / p.b
    c0, slope_g = law.c0, law.slope
    try:
        h_factor = p.h_gain ** (1.0 / p.b)
    except OverflowError:
        raise EquilibriumBracketError(
            f"h**(1/b) exceeds the float range (h = {p.h_gain}, b = {p.b}), so the "
            f"equilibrium residual cannot be evaluated in floating point"
        ) from None

    def f(x: float) -> float:
        try:
            power = x ** exponent
        except OverflowError:
            # x**exponent beyond the float range: the residual is -inf
            return -math.inf
        return c0 - slope_g * x - h_factor * power

    lo, hi = p.x_min, p.x_max
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        x_star = lo
    elif f_hi == 0.0:
        x_star = hi
    elif f_lo * f_hi > 0:
        raise EquilibriumBracketError(
            f"no sign change of the equilibrium residual on [{lo}, {hi}] "
            f"(f({lo}) = {f_lo:.3g}, f({hi}) = {f_hi:.3g})"
        )
    else:
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            f_mid = f(mid)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if (f_lo > 0) == (f_mid > 0):
                lo, f_lo = mid, f_mid
            else:
                hi, f_hi = mid, f_mid
            if hi - lo < 1e-15 * (0.5 * (lo + hi)):
                break
        x_star = 0.5 * (lo + hi)
    try:
        c_star = capacity(law, x_star)
    except CapacityExhaustedError:
        # a data problem, not a runtime one: the root lies within rounding
        # of the capacity root, so no x_star has c_star > 0 in floating point
        raise EquilibriumBracketError(
            f"the equilibrium rounds onto the capacity root: g(x_star) = "
            f"{law.value(x_star)} <= 0 at x_star = {x_star}"
        ) from None
    residual = abs(f(x_star)) / c_star
    return Equilibrium(x_star=x_star, c_star=c_star, residual=residual)


def apply_params(cfg: ScenarioConfig, changes: dict) -> ScenarioConfig:
    """``changes`` applied to the file's key values of ``cfg``, in the affine
    form with the requested step, and the whole config built again by
    ``build_config``."""
    if "kind" in changes:
        raise ConfigError(f"kind = {changes['kind']}: a law's kind is set only in a scenario "
                          "file; apply slope = 0 for a constant law")
    values = config_values(cfg)
    values.update(kind=AFFINE, intercept=cfg.law.c0, slope=cfg.law.slope,
                  step=cfg.step_requested)
    where = []
    for key, value in changes.items():
        if key not in {f.key for f in FIELDS}:
            raise ConfigError(f"unknown scenario key {key!r}")
        values["intercept" if key == "level" else key] = value
        where.append(f"{key} = {value}")
    return build_config(values, ", ".join(where), cfg.name)
