"""The model written out one formula per function: the oracles that
``dde.flow`` and ``dde.slope``, the fused loop in ``dde.integrate``,
``analysis.margin_kernel`` and the assumption violations of
``analysis.check_stability`` must match bit for bit, in values and in error
messages; the sweep summary rules that ``scenario.format_sweep_summary``
must match line for line; the numpy tick rule that ``svgplot._ticks``
must match bit for bit; the bisection, with the residual as a nested
function, that ``analysis.solve_equilibrium`` must match bit for bit; the
edit that turns a config back into a file's key values, which
``config.apply_params`` must match in its configs, error types and
messages; the run labels, in plain loops over the samples, that
``analysis.classify`` must match bit for bit; and the rate map of the
delay equation's large-delay limit with its 2-cycles, which have no
counterpart in ``src/`` yet."""

import math

import numpy as np

from ratelab.analysis import (
    CERTIFIED,
    CONVERGED,
    HARD,
    OSCILLATING,
    SATURATED,
    UNDETERMINED,
    WARNING,
    AssumptionViolation,
    Classification,
)
from ratelab.config import AFFINE, FIELDS, ScenarioConfig, build_config, config_values
from ratelab.dde import _require_positive
from ratelab.errors import ConfigError, ModelDomainError
from ratelab.model import CapacityLaw, Equilibrium, ModelParams, capacity

# The margin's 0/0 band, stated here rather than imported, so that a change to
# analysis.EPS_BAND_REL shows as a difference from this oracle.
EPS_BAND_REL = 1e-6


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
        raise ConfigError(
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
        raise ConfigError(
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
    elif not f_lo > 0 > f_hi:  # f falls in x: the only bracket is f(x_min) > 0 > f(x_max)
        raise ConfigError(
            f"no sign change of the equilibrium residual on [{lo}, {hi}] "
            f"(f({lo}) = {f_lo:.3g}, f({hi}) = {f_hi:.3g})"
        )
    else:
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            f_mid = f(mid)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if f_mid > 0:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15 * (0.5 * (lo + hi)):
                break
        x_star = 0.5 * (lo + hi)
    c_star = law.value(x_star)
    if not c_star > 0:
        # a data problem, not a runtime one: the root lies within rounding
        # of the capacity root, so no x_star has c_star > 0 in floating point
        raise ConfigError(
            f"the equilibrium rounds onto the capacity root: g(x_star) = "
            f"{c_star} <= 0 at x_star = {x_star}"
        )
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


def classify(traj, eq: Equilibrium, tol_conv: float = 1e-2, tol_osc: float = 0.1,
             tail_fraction: float = 0.2) -> Classification:
    """The run's label from plain loops over the samples.

    A run shorter than 10*tau (less a slack of 1e-9 of a step) is
    Undetermined.  Otherwise the tail is every sample at or after
    t_end - tail_fraction*t_end, and the mid-run window every sample in
    [mid_lo, mid_lo + window] with mid_lo = (t_end - window)/2.  Converged:
    the final error and the tail's peak-to-peak both below tol_conv.
    Oscillating: the tail's peak-to-peak above tol_osc and at least 0.9 times
    the mid-run one.  Saturated: a flat tail on x_min or x_max.  The settling
    time is that of the sample after the last one at least tol_conv from x*:
    None if that is the last sample, 0.0 if there is none."""
    if not (0 < tail_fraction <= 0.5):
        raise ModelDomainError(f"tail_fraction must be in (0, 0.5], got {tail_fraction}")
    ts, xs = [float(v) for v in traj.t], [float(v) for v in traj.x]
    horizon = traj.t_end
    final_error = abs(xs[-1] - eq.x_star)
    if horizon < 10.0 * traj.params.tau - 1e-9 * traj.step:
        return Classification(UNDETERMINED, final_error, max(xs) - min(xs), None)
    window = tail_fraction * horizon
    mid_lo = 0.5 * (horizon - window)
    tail, mid = [], []
    for t, x in zip(ts, xs):
        if t >= horizon - window:
            tail.append(x)
        if mid_lo <= t <= mid_lo + window:
            mid.append(x)
    if not (tail and mid):
        raise ModelDomainError(
            f"tail_fraction = {tail_fraction} leaves a window of {window:.6g} with no "
            f"sample on the step {traj.step:.6g} grid"
        )
    tail_pp = max(tail) - min(tail)
    mid_pp = max(mid) - min(mid)
    last_outside = None
    for i, x in enumerate(xs):
        if abs(x - eq.x_star) >= tol_conv:
            last_outside = i
    if last_outside is None:
        settling = 0.0
    elif last_outside == len(xs) - 1:
        settling = None
    else:
        settling = ts[last_outside + 1]
    if final_error < tol_conv and tail_pp < tol_conv:
        kind = CONVERGED
    elif tail_pp > tol_osc and tail_pp >= 0.9 * mid_pp:
        kind = OSCILLATING
    elif tail_pp == 0.0 and tail[-1] in (traj.params.x_min, traj.params.x_max):
        kind = SATURATED
    else:
        kind = UNDETERMINED
    return Classification(kind, final_error, tail_pp, settling)


def rate_map(y: float, p: ModelParams, law: CapacityLaw) -> float:
    """m(y) = F(y, y)**(-1/a) with F(u, v) = h*u**(b+1)*g(v)**-b: the rate at
    which x**-a balances a price flow held at the constant history y, so the
    rate one delay later when kappa*tau is large.  NaN where g(y) <= 0."""
    c = law.value(y)
    if not c > 0:
        return math.nan
    return (p.h_gain * y ** (p.b + 1.0) * c ** -p.b) ** (-1.0 / p.a)


def two_cycle(p: ModelParams, law: CapacityLaw, x_star: float, nodes: int = 4000):
    """The 2-cycle {y, m(y)} of :func:`rate_map` with the least y in
    [x_min, x_star), or None: m(m(y)) - y is scanned at the nodes
    x_star - (x_star - x_min)*0.99**i, which crowd toward x_star, and its
    first sign change between defined values is bisected to adjacent floats."""
    def gap(y):
        return rate_map(rate_map(y, p, law), p, law) - y

    prev_y, prev_g = None, math.nan
    for i in range(nodes):
        y = x_star - (x_star - p.x_min) * 0.99 ** i
        g = gap(y)
        if not math.isnan(prev_g) and not math.isnan(g) and (prev_g > 0) != (g > 0):
            lo, hi, g_lo = prev_y, y, prev_g
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if (gap(mid) > 0) == (g_lo > 0):
                    lo = mid
                else:
                    hi = mid
            return lo, rate_map(lo, p, law)
        prev_y, prev_g = y, g
    return None
