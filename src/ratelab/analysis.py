"""Equilibrium, the delay-independent stability margin with its capacity
assumption (A3), an energy-functional monitor, and trajectory classification.

The stability check asks whether, with the capacity coupled to the rate
(c = g(x)), the marginal-utility difference quotient dominates the delayed
price-flow difference quotient at every rate in a configured range:

    (x***-a - x**-a)/(x - x*)  >  (x**(b+1) c**-b - x***(b+1) c***-b)/(x - x*)

A positive minimum of LHS - RHS over the range certifies global asymptotic
convergence regardless of the delays; the converse does not hold (the
condition is sufficient only).  Every margin comes from one kernel,
:func:`margin_kernel`, over a whole profile; a single margin is a batch of one.

A check splits into two halves.  Its range side (the grid nodes, their
g(x) and x**-a terms when every node is regular, and the A3 findings on
that grid) depends on the range, the grid size, a and the law, never on b,
h or kappa; the last range side is kept, so a b-bisection over one range
builds it once.  The equilibrium and the b-dependent terms are computed on
every check.  The terms' margins come from one comprehension that hands
their rates to the kernel's ordered loop on an arithmetic error, so every
value and error is the loop's (:func:`margin_kernel`).

The margin check is pure Python: ``check`` never loads numpy.
:func:`lyapunov_values` and :func:`classify` read trajectory arrays and
import numpy when called.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import chain
from typing import NamedTuple

from .errors import EquilibriumBracketError, MarginOverflowError, ModelDomainError
from .model import CapacityLaw, Equilibrium, ModelParams, capacity

CERTIFIED = "CertifiedStable"
NOT_CERTIFIED = "NotCertified"

CONVERGED = "Converged"
OSCILLATING = "Oscillating"
SATURATED = "Saturated"
UNDETERMINED = "Undetermined"

HARD = "hard"
WARNING = "warning"

# Relative half-width of the band around x_star where the margin switches to
# its analytic limit (the difference quotients are 0/0 there).
EPS_BAND_REL = 1e-6

# Slack of lyapunov_values' and classify's horizon checks, as a fraction of the step.
HORIZON_SLACK = 1e-9

# The largest grid_n whose range side, about 150 bytes a node, is kept for the next check.
KEEP_GRID_N = 4096

# Samples per quadrature block in lyapunov_values: bounds the
# (samples x theta_nodes) temporaries.
LYAPUNOV_BLOCK = 16


class AssumptionViolation(NamedTuple):
    assumption: str
    description: str
    severity: str


class StabilityReport(NamedTuple):
    """Outcome of the margin check over a rate range, an immutable record.

    The minimum is taken over the uniform grid plus the analytic limit point
    at x_star: the first NaN if any margin is NaN, else the first smallest
    margin, and the rate where it sits.  The verdict is CertifiedStable iff
    the minimum margin is positive and no hard assumption violation was found.
    """

    equilibrium: Equilibrium
    violations: tuple
    x_range: tuple
    grid_n: int
    min_margin: float
    min_margin_x: float
    verdict: str


class Classification(NamedTuple):
    kind: str
    final_error: float
    tail_peak_to_peak: float
    settling_time: float | None


def solve_equilibrium(p: ModelParams, law: CapacityLaw) -> Equilibrium:
    """Bisect g(x) - h**(1/b) * x**((a+b+1)/b) to its root in [x_min, x_max].

    The root is the unique rate at which the update law vanishes; it also
    satisfies first-order optimality U'(x*) = p(x*, c*).  The residual
    falls in x, so past the exact-zero exits only f(x_min) > 0 > f(x_max)
    is bisected and any other pair raises EquilibriumBracketError (by sign:
    the ends' product underflows to 0 for tiny ends).  The bracket alone
    stops the loop, at 1e-15 of its midpoint (well below the 1e-12*x_star
    contract at every scale, a tiny residual even for steep exponents) or
    when the midpoint rounds onto an end, which finite bounds make certain.
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
    elif not f_lo > 0.0 > f_hi:
        raise EquilibriumBracketError(
            f"no sign change of the equilibrium residual on [{lo}, {hi}] "
            f"(f({lo}) = {f_lo:.3g}, f({hi}) = {f_hi:.3g})"
        )
    else:
        # f inline, no call per step (change both together); f(lo) > 0 > f(hi)
        # holds throughout; each midpoint is computed once: the stop test's is the next step's
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            try:
                f_mid = c0 - slope_g * mid - h_factor * mid ** exponent
            except OverflowError:
                f_mid = -math.inf
            if f_mid > 0.0:
                lo = mid
            elif f_mid == 0.0:
                lo = hi = mid  # an exact root: the collapsed bracket ends the loop
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
            if hi - lo < 1e-15 * mid:
                break
        x_star = 0.5 * (lo + hi)
    c_star = law.value(x_star)
    if not c_star > 0.0:
        # a data problem, not a runtime one: the root lies within rounding
        # of the capacity root, so no x_star has c_star > 0 in floating point
        raise EquilibriumBracketError(
            f"the equilibrium rounds onto the capacity root: g(x_star) = "
            f"{c_star} <= 0 at x_star = {x_star}"
        )
    residual = abs(f(x_star)) / c_star
    return Equilibrium(x_star=x_star, c_star=c_star, residual=residual)


def uniform_grid(lo: float, hi: float, n: int) -> list[float]:
    """``n >= 2`` evenly spaced floats from ``lo`` to ``hi``, bit for bit
    ``numpy.linspace(lo, hi, n).tolist()``: node i is ``i * step + lo`` and
    the last node is ``hi``.  A step that underflows to 0 takes numpy's
    branch for it, ``i / (n - 1) * delta + lo``."""
    lo, hi = float(lo), float(hi)
    delta = hi - lo
    step = delta / (n - 1)
    if step == 0:
        grid = [i / (n - 1) * delta + lo for i in range(n)]
    else:
        grid = [i * step + lo for i in range(n)]
    grid[-1] = hi
    return grid


def _band_limit(a, b, h, xs, cs, law):
    """The margin's analytic limit at x_star, the form in :func:`margin_kernel`."""
    return a * xs ** -(a + 1.0) - h * (
        (b + 1.0) * xs ** b * cs ** -b - b * xs ** (b + 1.0) * cs ** -(b + 1.0) * law.derivative()
    )


def margin_kernel(
    p: ModelParams, law: CapacityLaw, eq: Equilibrium, points, terms=()
) -> list[float]:
    """The stability margin at one equilibrium, at every rate of ``terms``
    and then of ``points``.

    The margin is LHS - RHS of the certification inequality at rate x, with
    the capacity coupled to the rate, c = g(x).  Within EPS_BAND_REL*x_star
    of x_star the 0/0 quotients are replaced by their analytic limit, the
    derivative of each side at x_star:

        a*xs**-(a+1) - h*[(b+1)*xs**b*cs**-b - b*xs**(b+1)*cs**-(b+1)*g'(xs)]

    A single margin is ``points = [x]``.  The ordered loop takes plain rates
    and defines every value and error: each rate is evaluated on its own,
    as ``tests/oracle.py``'s ``stability_margin`` does.  The checks run in
    order: x > 0, the band, :func:`capacity`, then the powers.  A power
    beyond the float range raises MarginOverflowError naming x by ``repr``.

    ``terms`` are a regular range side's ``(x, g(x), x**-a)`` triples, from
    :func:`_range_side`: they pass the loop's x and capacity checks, so
    their margins come from one list comprehension.  The band limit and the
    equilibrium powers are bound before it, and every node outside the band
    takes the loop's expression in its association.  If any of that raises
    an ArithmeticError (an overflow, or a division by zero when the band
    underflows to 0), its result is discarded and the terms' rates go to
    the loop ahead of ``points``, so the error is the loop's, at its node.
    """
    xs, cs = eq.x_star, eq.c_star
    a, b, h = p.a, p.b, p.h_gain
    neg_a, b_plus_1, neg_b = -a, b + 1.0, -b
    band = EPS_BAND_REL * xs
    neg_band = -band
    limit = None
    margins = []
    if terms:
        try:
            limit = _band_limit(a, b, h, xs, cs, law)
            lhs_star, flow_star = xs ** neg_a, xs ** b_plus_1 * cs ** neg_b
            margins = [
                limit if neg_band < (d := x - xs) < band
                else (lhs_star - x_neg_a) / d - h * (x ** b_plus_1 * c ** neg_b - flow_star) / d
                for x, c, x_neg_a in terms
            ]
        except ArithmeticError:
            # margins is untouched: the loop takes the rates in order and
            # raises at the node that fails first
            points = chain((x for x, _, _ in terms), points)
    try:
        for x in points:
            if not x > 0.0:
                raise ModelDomainError(f"margin requires x > 0, got {x}")
            # the same decision as abs(d) < band: band >= 0 and x is not NaN
            d = x - xs
            if neg_band < d < band:
                margins.append(_band_limit(a, b, h, xs, cs, law) if limit is None else limit)
                continue
            c = capacity(law, x)
            margins.append((xs ** neg_a - x ** neg_a) / d
                           - h * (x ** b_plus_1 * c ** neg_b - xs ** b_plus_1 * cs ** neg_b) / d)
    except OverflowError as exc:
        raise MarginOverflowError(
            f"margin at x = {x!r} exceeds the float range (a = {a}, b = {b})"
        ) from exc
    return margins


@functools.lru_cache(maxsize=1)
def _range_side(x_lo: float, x_hi: float, grid_n: int, a: float, law: CapacityLaw):
    """The b-independent half of a check over ``[x_lo, x_hi]``, in tuples:
    the ``uniform_grid`` nodes, their ``(x, g(x), x**-a)`` terms when every
    node is regular and ``()`` otherwise, and the A3 findings on that grid;
    and whether one of them is hard.  A regular node passes the kernel's x
    and capacity checks and its x**-a lies in the float range: x > 0 holds
    at every node of a finite range within the rate bounds, and g is
    monotone, so g(x) > 0 is tested at the last node alone.  One side of at
    most KEEP_GRID_N nodes is kept, under an untyped key that a bisection does
    not vary, and an equal int and float build one side."""
    c0, slope_g = law.c0, law.slope
    neg_a = -a
    grid = tuple(uniform_grid(x_lo, x_hi, grid_n))
    # g = c0 - slope*x with slope >= 0 and rounding is monotone, so no node
    # has less capacity than its last one, x_hi
    c_last = c0 - slope_g * grid[-1]
    terms = ()
    if c_last > 0.0:
        try:
            terms = tuple((x, c0 - slope_g * x, x ** neg_a) for x in grid)
        except OverflowError:
            pass
    violations = []
    # only when the last node fails A3 is the grid searched for the first that does
    hard = c_last <= 1.0
    if hard:
        x = next(x for x in grid if c0 - slope_g * x <= 1.0)
        violations.append(AssumptionViolation(
            "A3", f"capacity must exceed 1 on the range: g({x:.6g}) = {c0 - slope_g * x:.6g}",
            HARD))
    if law.derivative() >= -1.0:
        violations.append(AssumptionViolation("A3", "capacity slope must satisfy g'(x) < -1, "
                                              f"got g'(x) = {law.derivative():.6g}", WARNING))
    return grid, terms, tuple(violations), hard


def check_stability(
    p: ModelParams,
    law: CapacityLaw,
    x_range: tuple[float, float],
    grid_n: int,
) -> StabilityReport:
    """Evaluate the margin on a uniform grid plus the x_star limit point.

    ``p`` and ``law`` hold the other assumptions by construction; A3 is
    reported on the grid.  g(x) <= 1 is hard, naming the first node;
    g'(x) >= -1 warns (the benchmark law g(x) = 5 - x sits on that
    boundary, and a slope of 0 is past it).  The grid, its terms and A3
    come from the range side of the last check when the range, grid_n (at
    most KEEP_GRID_N), a and the law are the same; the equilibrium and every
    b-dependent term are computed afresh.  ``grid_n`` is any integer type
    (``operator.index``), numpy's included."""
    try:
        grid_n = operator.index(grid_n)
    except TypeError:
        raise ModelDomainError(f"grid_n must be an integer, got {grid_n!r}") from None
    if grid_n < 16:
        raise ModelDomainError(f"grid_n must be at least 16, got {grid_n}")
    eq = solve_equilibrium(p, law)
    x_lo, x_hi = x_range
    if not (x_lo < x_hi):
        raise ModelDomainError(f"range must satisfy x_lo < x_hi, got [{x_lo}, {x_hi}]")
    if not (x_lo >= p.x_min and x_hi <= p.x_max):
        raise ModelDomainError(f"range [{x_lo}, {x_hi}] must lie within the rate bounds "
                               f"[{p.x_min}, {p.x_max}]")
    side = _range_side if grid_n <= KEEP_GRID_N else _range_side.__wrapped__
    grid, terms, violations, hard = side(x_lo, x_hi, grid_n, p.a, law)
    margins = margin_kernel(p, law, eq, [eq.x_star] if terms else [*grid, eq.x_star], terms)
    # numpy.argmin's rule: the first NaN, else the first smallest margin.  A
    # NaN makes the sum NaN, so a sum that is not NaN (one C pass) rules it
    # out; a NaN sum from +inf and -inf alone goes on to the scan
    if math.isnan(sum(margins)) and any(map(math.isnan, margins)):
        i_min = next(i for i, m in enumerate(margins) if math.isnan(m))
    else:
        i_min = margins.index(min(margins))
    verdict = CERTIFIED if (margins[i_min] > 0 and not hard) else NOT_CERTIFIED
    return StabilityReport(
        equilibrium=eq, violations=violations, x_range=(float(x_lo), float(x_hi)),
        grid_n=grid_n, min_margin=float(margins[i_min]),
        min_margin_x=float(grid[i_min] if i_min < grid_n else eq.x_star),
        verdict=verdict,
    )


def lyapunov_values(
    traj: Trajectory,
    ts,
    p: ModelParams,
    eq: Equilibrium,
    theta_nodes: int = 201,
) -> np.ndarray:
    """Energy functional |x - x*| + kappa*sgn(x - x*) * I(t) at each sample
    time in ``ts``, where I(t) integrates the delayed price-flow excess over
    theta in [-1, 0] with arguments x(t + theta*tau) and c(t + theta*T).

    Composite trapezoid quadrature with ``theta_nodes`` nodes; trajectory
    samples between grid points come from the Hermite interpolant.  sgn(0)
    is 0, so a trajectory pinned at the equilibrium gives exactly 0.

    The quadrature windows of ``LYAPUNOV_BLOCK`` samples at a time form one
    (samples x theta) grid, so each block costs one interpolation per delay
    and one trapezoid reduction along theta; every element goes through the
    same floating-point operations as a batch of one.  The block
    bounds the temporaries.  Horizon errors name the first sample outside
    the recorded window and are raised before any sample is evaluated.
    """
    import numpy as np

    if theta_nodes < 3:
        raise ModelDomainError(f"theta_nodes must be at least 3, got {theta_nodes}")
    ts = np.asarray(ts, dtype=float).reshape(-1)
    slack = HORIZON_SLACK * traj.step
    early = ts - p.max_delay < -slack
    late = ts > traj.t_end + slack
    if np.any(early | late):
        i = int(np.argmax(early | late))
        if early[i]:
            raise ModelDomainError(
                f"need max(tau, T) = {p.max_delay} of recorded history before "
                f"t = {ts[i]}; trajectory starts at 0.0"
            )
        raise ModelDomainError(f"t = {ts[i]} beyond trajectory end {traj.t_end}")

    b, h = p.b, p.h_gain
    theta = np.linspace(-1.0, 0.0, theta_nodes)
    theta_tau = theta * p.tau
    theta_t = theta * p.T_delay
    term_star = h * eq.x_star ** (b + 1.0) * eq.c_star ** -b
    integral = np.empty(len(ts))
    for lo in range(0, len(ts), LYAPUNOV_BLOCK):
        block = ts[lo:lo + LYAPUNOV_BLOCK, None]
        x_tau = traj.interp_x(block + theta_tau)
        x_t = traj.interp_x(block + theta_t)
        c_t = traj.law.value(x_t)
        if np.any(c_t <= 0):
            raise ModelDomainError("capacity nonpositive along the quadrature window")
        term = h * x_tau ** (b + 1.0) * c_t ** -b
        integral[lo:lo + LYAPUNOV_BLOCK] = np.trapezoid(
            term - term_star, dx=1.0 / (theta_nodes - 1), axis=1
        )
    dev = traj.interp_x(ts) - eq.x_star
    sign = np.where(dev == 0.0, 0.0, np.copysign(1.0, dev))
    return np.abs(dev) + p.kappa * sign * integral


def classify(
    traj: Trajectory,
    eq: Equilibrium,
    tol_conv: float = 1e-2,
    tol_osc: float = 0.1,
    tail_fraction: float = 0.2,
) -> Classification:
    """Label the run outcome from its tail behavior.

    Converged: the endpoint and the tail peak-to-peak are both inside
    tol_conv.  Oscillating: tail peak-to-peak above tol_osc with no decay
    trend (tail amplitude at least 0.9x the mid-run amplitude over a window
    of the same length).  Saturated: every tail sample is exactly x_min or
    exactly x_max (integrate records a projected rate as the bound itself).
    Anything else (e.g. still-decaying transients, or a slow drift near a
    bound) is Undetermined.  A horizon shorter than 10*tau is too short to
    tell a tail from a transient: it is Undetermined, with the peak-to-peak
    of the whole run and no settling time.
    """
    import numpy as np

    if not (0 < tail_fraction <= 0.5):
        raise ModelDomainError(f"tail_fraction must be in (0, 0.5], got {tail_fraction}")

    x = traj.x
    t = traj.t
    horizon = traj.t_end
    final_error = float(abs(x[-1] - eq.x_star))
    if horizon < 10.0 * traj.params.tau - HORIZON_SLACK * traj.step:
        return Classification(UNDETERMINED, final_error, float(x.max() - x.min()), None)

    window = tail_fraction * horizon
    tail = x[t >= traj.t_end - window]
    mid_lo = 0.5 * (horizon - window)
    mid = x[(t >= mid_lo) & (t <= mid_lo + window)]
    if not (tail.size and mid.size):  # a window narrower than the step
        raise ModelDomainError(
            f"tail_fraction = {tail_fraction} leaves a window of {window:.6g} with no "
            f"sample on the step {traj.step:.6g} grid"
        )

    tail_pp = float(tail.max() - tail.min())
    mid_pp = float(mid.max() - mid.min())

    outside = np.abs(x - eq.x_star) >= tol_conv
    if outside[-1]:
        settling = None
    elif not outside.any():
        settling = 0.0
    else:
        idx_last_outside = len(x) - 1 - int(np.argmax(outside[::-1]))
        settling = float(t[idx_last_outside + 1])

    if final_error < tol_conv and tail_pp < tol_conv:
        kind = CONVERGED
    elif tail_pp > tol_osc and tail_pp >= 0.9 * mid_pp:
        kind = OSCILLATING
    elif tail_pp == 0.0 and tail[-1] in (traj.params.x_min, traj.params.x_max):
        kind = SATURATED
    else:
        kind = UNDETERMINED
    return Classification(kind, final_error, tail_pp, settling)
