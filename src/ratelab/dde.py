"""Fixed-step integration of the scalar delayed rate dynamics.

State history is kept on a uniform grid as (value, derivative) pairs and
queried with cubic Hermite interpolation, so delayed arguments that fall on
grid points are exact and half-grid stage times cost one local polynomial
evaluation.  Delays must be integer multiples of the step; this keeps every
breaking point of the solution aligned with the grid.

The loop is pure Python; numpy is imported only where a trajectory's arrays
are built (at the end of :func:`integrate`) or read (:meth:`Trajectory.interp_x`).
"""

from __future__ import annotations

import math
from itertools import cycle, islice
from typing import NamedTuple

from .errors import IntegrationDivergedError, ModelDomainError
from .model import FLOAT_MAX, CapacityLaw, ModelParams, capacity, whole_steps

# Exact-hit snap tolerance for time queries, as a fraction of the step.
GRID_SNAP = 1e-12
# Classical RK4 is stable on the negative real axis down to step*lambda = -2.785.
RK4_REAL_STABILITY = 2.785


def hermite_value(x0, x1, d0, d1, h, theta):
    """Cubic Hermite interpolant on one interval; theta in [0, 1]."""
    t2 = theta * theta
    t3 = t2 * theta
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * x0
        + (-2.0 * t3 + 3.0 * t2) * x1
        + (t3 - 2.0 * t2 + theta) * h * d0
        + (t3 - t2) * h * d1
    )


class Trajectory(NamedTuple):
    """Integration output on the uniform grid [0, t_end], an immutable record.

    ``c`` is the capacity g(x) at each sample and ``dxdt`` the accepted
    (projected) rate derivative.  ``params`` and ``law`` echo the inputs that
    produced the run.
    """

    step: float
    t_end: float
    t: np.ndarray
    x: np.ndarray
    c: np.ndarray
    dxdt: np.ndarray
    params: ModelParams
    law: CapacityLaw

    def interp_x(self, t_query):
        """Hermite-interpolated x at scalar or array times within the span."""
        import numpy as np

        tq = np.asarray(t_query, dtype=float)
        rel = tq / self.step
        n = len(self.x)
        tol = GRID_SNAP * max(1.0, n - 1.0)
        out_of_range = ~((rel >= -tol) & (rel <= (n - 1) + tol))  # NaN is out of range
        if np.any(out_of_range):
            bad = tq.flat[int(np.argmax(out_of_range))]
            raise ModelDomainError(
                f"t = {bad} outside trajectory span [0.0, {self.t_end}]"
            )
        j = np.clip(np.floor(rel).astype(np.int64), 0, n - 2)
        theta = np.clip(rel - j, 0.0, 1.0)
        out = hermite_value(
            self.x[j], self.x[j + 1], self.dxdt[j], self.dxdt[j + 1], self.step, theta
        )
        # snap grid hits to the stored samples (the division noise grows with rel)
        near = np.abs(rel - np.rint(rel)) <= tol
        if np.any(near):
            node = np.clip(np.rint(rel).astype(np.int64), 0, n - 1)
            out = np.where(near, self.x[node], out)
        return float(out) if np.isscalar(t_query) else out


def _delay_steps(delay: float, step: float, name: str) -> int:
    k = whole_steps(delay, step)
    if not k:
        raise ModelDomainError(f"{name} = {delay} is not an integer multiple of step = {step}")
    return k


def _diverged(cause, t_fail: float, p: ModelParams, step: float, *rates: float):
    """The loop's failure at ``t_fail`` as IntegrationDivergedError: the domain
    error ``cause``, an arithmetic one, or a non-finite state when it is None.

    RK4 is stable on the instantaneous term's Jacobian -kappa*a*x**-(a+1)
    only above the rate (kappa*a*step/2.785)**(1/(a+1)).  ``rates`` are the
    least recorded rate and the failing step's first-stage rate x + step/2*k1,
    where its later stages evaluate the Jacobian.  When the least positive is
    below the bound, the message names it and the largest step stable there,
    2.785*x**(a+1)/(kappa*a) in a form that cannot overflow, or none if 0.
    """
    message = (f"state became non-finite at t = {t_fail:.6g}" if cause is None
               else f"integration left the model domain at t = {t_fail:.6g}: {cause}"
               if isinstance(cause, ModelDomainError)
               else f"the step's arithmetic exceeds the float range at t = {t_fail:.6g}")
    x_low = min(x for x in rates if x > 0)
    x_bound = (p.kappa * p.a * step / RK4_REAL_STABILITY) ** (1.0 / (p.a + 1.0))
    if x_low < x_bound:
        h_max = step * (x_low / x_bound) ** (p.a + 1.0)
        message += (
            f"; rate {x_low:.6g} is below the RK4 stiffness bound "
            f"(kappa*a*step/{RK4_REAL_STABILITY})**(1/(a+1)) = {x_bound:.6g}, and "
            + (f"the largest step stable at that rate is {h_max:.6g}" if h_max > 0.0
               else "no positive float step is stable at that rate")
        )
    return IntegrationDivergedError(message, t_fail)


def _require_positive(name: str, v: float) -> None:
    # "rhs" names the right-hand side; the text reaches stderr and sweep.csv
    if not v > 0:
        raise ModelDomainError(f"rhs requires {name} > 0, got {v}")


def flow(p: ModelParams, law: CapacityLaw, x_now: float, x_delayed: float, x_cap: float) -> float:
    """The delayed price flow h*x_d**(b+1)*c_d**-b at c_d = g(x_cap), after
    the positivity checks in their order: capacity, x_now, x_delayed."""
    c = capacity(law, x_cap)
    _require_positive("x_now", x_now)
    _require_positive("x_delayed", x_delayed)
    return p.h_gain * x_delayed ** (p.b + 1.0) * c ** -p.b


def slope(p: ModelParams, x_now: float, f: float) -> float:
    """kappa*(x_now**-a - f) after the x_now check, projected at the rate bounds."""
    _require_positive("x_now", x_now)
    d = p.kappa * (x_now ** -p.a - f)
    if x_now >= p.x_max:
        return min(d, 0.0)
    if x_now <= p.x_min:
        return max(d, 0.0)
    return d


def integrate(
    params: ModelParams,
    law: CapacityLaw,
    init_x: float,
    t_end: float,
    step: float,
) -> Trajectory:
    """Advance the delayed rate dynamics with classical RK4 over [0, t_end].

    The initial function is the constant ``init_x`` on [-max(tau, T), 0],
    stored with zero slopes: it is given data, not dynamics.  With a
    constant initial function and grid-aligned delays every breaking point
    of the solution lies on the grid, so the caller supplies only the rate.

    Stage derivatives use the derivative projection at the rate bounds, and
    delayed arguments come from the growing history: grid-aligned delays are
    read exactly, half-grid stage times through the cubic Hermite midpoint
    of the enclosing interval.  The accepted state is projected into
    [x_min, x_max] and recorded with its projected derivative; a recorded
    rate with g(x) <= 0 fails the run at the step that records it.  t_end is
    rounded to the nearest whole number of steps; the trajectory reports the
    grid-aligned horizon actually covered.

    Each step evaluates every distinct quantity once: the recorded
    derivative of the previous step is this step's first stage (first same
    as last), the delayed price flow is computed once per distinct delayed
    time, shared by k2/k3 at t + step/2 and by k4 and the recorded
    derivative at t + step, and each interval's Hermite midpoint is formed
    once, when its right end is recorded.  That is four projected slopes and
    two price flows per step.  Interior stages (positive capacity and
    delayed rate, rate strictly inside the bounds) repeat the expressions of
    :func:`flow` and :func:`slope` inline, in the same association; every
    other stage, and the slope at t = 0, calls them to raise or project.
    Both are the plain five-stage loop's floating-point operations in its
    order, so results, error messages and failure times are bit-identical
    to it.  ``tests/test_dde.py`` checks that against a loop over the
    formulas of ``tests/oracle.py``: a change to either function must
    change its inline copy too.

    Every delayed read is a fixed lag into what is already recorded (the
    method of steps), so the loop works out no index: the grid reads come
    from iterators that trail the append-only record by k_tau and k_t >= 1
    entries, and the midpoint ring's write and read slots from one cycle at
    three offsets.  The grid reads feed k4 and the recorded derivative
    without the midpoint reads' capacity and x_delayed > 0 tests: every
    recorded rate is init_x or lies in [x_min, x_max], with x_min > 0, and
    has g(x) > 0 (the slope at t = 0 checks g(init_x), an interior record
    lies below x_hi, a projected one passes :func:`capacity`).  :func:`flow`
    still checks both on the fallback path.

    Two runs with identical inputs produce bit-identical trajectories: the
    loop is sequential pure-float arithmetic with no ambient state.
    """
    if not 0 < t_end <= FLOAT_MAX:
        raise ModelDomainError(f"t_end must be positive, got {t_end}")
    if not 0 < step <= FLOAT_MAX:
        raise ModelDomainError(f"step must be positive, got {step}")
    if not 0 < init_x <= FLOAT_MAX:
        raise ModelDomainError(f"init_x must be positive and finite, got {init_x}")
    if max(t_end, params.tau) / step > FLOAT_MAX:  # T_delay <= tau: no other count overflows
        raise ModelDomainError(f"step = {step} is too small: max(t_end, tau) / step overflows")
    k_tau = _delay_steps(params.tau, step, "tau")
    k_t = _delay_steps(params.T_delay, step, "T_delay")

    n_steps = round(t_end / step)
    if n_steps < 1:
        raise ModelDomainError(f"t_end = {t_end} shorter than one step {step}")

    # Append-only records over [-max delay, t_end]; index i0 of xs is t = 0.
    # The junction at t = 0 carries two one-sided derivatives: the
    # pre-history slopes are zero (data, left of 0), and ds records only
    # the dynamic ones, starting with d0_dyn for the interval [0, step].
    i0 = max(k_tau, k_t)
    x0 = float(init_x)
    xs = [x0] * (i0 + 1)
    kappa, neg_a, x_min, x_max = params.kappa, -params.a, params.x_min, params.x_max
    h, b_plus_1, neg_b = params.h_gain, params.b + 1.0, -params.b
    c0, slope_g = law.c0, law.slope
    # x_hi is the least float with g(x) <= 0, capped at x_max.  g is monotone
    # in floating point, so x < x_hi exactly when x < x_max and g(x) > 0.
    x_hi = min(x_max, c0 / slope_g) if slope_g else x_max
    while x_hi < x_max and law.value(x_hi) > 0.0:
        x_hi = math.nextafter(x_hi, x_max)
    while law.value(math.nextafter(x_hi, 0.0)) <= 0.0:
        x_hi = math.nextafter(x_hi, 0.0)
    half = 0.5 * step
    sixth = step / 6.0
    eighth = 0.125 * step
    try:
        d0_dyn = slope(params, x0, flow(params, law, x0, xs[i0 - k_tau], xs[i0 - k_t]))
    except (ModelDomainError, OverflowError, ZeroDivisionError) as exc:
        raise _diverged(exc, 0.0, params, step, x0) from exc
    ds = [d0_dyn]
    append_x, append_d = xs.append, ds.append
    # Step j reads the grid at xs[i0 + j + 1 - k] for k = k_tau, k_t >= 1:
    # iterators trailing the newest sample by k, so each reads an entry
    # appended before the step began.
    grid_tau = islice(xs, i0 + 1 - k_tau, None)
    grid_t = islice(xs, i0 + 1 - k_t, None)
    # Ring of Hermite midpoints: slot m % n_mid holds the midpoint of the
    # interval [m, m + 1] of xs.  Step j writes slot (i0 + j) % n_mid once
    # it has recorded xs[i0 + j + 1] and its slope, and reads slots
    # (i0 + j - k) % n_mid: one cycle of slots at three offsets.  Every
    # pre-history interval has the same midpoint: the loop's expression
    # with x0 at both ends and zero slopes.
    n_mid = i0 + 1
    mids = [0.5 * (x0 + x0) + eighth * (0.0 - 0.0)] * n_mid

    def slots(start: int):
        return cycle([*range(start, n_mid), *range(start)])

    x, k1 = x0, d0_dyn
    for j, w, r_t, r_tau, xd_tau4, xd_t4 in zip(
        range(n_steps), slots(i0), slots(i0 - k_t), slots(i0 - k_tau), grid_tau, grid_t
    ):
        xd_t = mids[r_t]
        xd_tau = mids[r_tau]
        # The arithmetic of flow and slope, inline for interior stages:
        # positive capacity and delayed rate, and a rate strictly inside
        # (x_min, x_max).  Any other input goes to flow and slope, which
        # raise or project.
        try:
            x_half = x + half * k1
            c_d = c0 - slope_g * xd_t
            if c_d > 0.0 and x_min < x_half < x_max and xd_tau > 0.0:
                f = h * xd_tau ** b_plus_1 * c_d ** neg_b
                k2 = kappa * (x_half ** neg_a - f)
            else:
                f = flow(params, law, x_half, xd_tau, xd_t)
                k2 = slope(params, x_half, f)
            x_stage = x + half * k2
            if x_min < x_stage < x_max:
                k3 = kappa * (x_stage ** neg_a - f)
            else:
                k3 = slope(params, x_stage, f)
        except (ModelDomainError, OverflowError, ZeroDivisionError) as exc:
            raise _diverged(exc, j * step + half, params, step, min(xs), x_half) from exc
        # recorded rates are positive with g(x) > 0, so the grid read tests neither
        try:
            x_stage = x + step * k3
            if x_min < x_stage < x_max:
                f = h * xd_tau4 ** b_plus_1 * (c0 - slope_g * xd_t4) ** neg_b
                k4 = kappa * (x_stage ** neg_a - f)
            else:
                f = flow(params, law, x_stage, xd_tau4, xd_t4)
                k4 = slope(params, x_stage, f)
            x_next = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if x_min < x_next < x_hi:
                k_next = kappa * (x_next ** neg_a - f)
            else:
                if not math.isfinite(x_next):
                    raise _diverged(None, j * step + step, params, step, min(xs), x_half)
                x_next = min(max(x_next, x_min), x_max)
                capacity(law, x_next)
                k_next = slope(params, x_next, f)
        except (ModelDomainError, OverflowError, ZeroDivisionError) as exc:
            raise _diverged(exc, j * step + step, params, step, min(xs), x_half) from exc
        append_x(x_next)
        append_d(k_next)
        mids[w] = 0.5 * (x + x_next) + eighth * (k1 - k_next)
        x, k1 = x_next, k_next

    import numpy as np

    t_arr = step * np.arange(n_steps + 1)
    x_arr = np.array(xs[i0:], dtype=float)
    d_arr = np.array(ds, dtype=float)
    c_arr = law.value(x_arr)
    return Trajectory(step, float(t_arr[-1]), t_arr, x_arr, c_arr, d_arr, params, law)
