"""Fixed-step integration of the scalar delayed rate dynamics.

State history is kept on a uniform grid as (value, derivative) pairs and
queried with cubic Hermite interpolation, so delayed arguments that fall on
grid points are exact and half-grid stage times cost one local polynomial
evaluation.  Delays must be integer multiples of the step; this keeps every
breaking point of the solution aligned with the grid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError,
    HistoryRangeError,
    IntegrationDivergedError,
    ModelDomainError,
)
from .model import CapacityLaw, ModelParams, stage_kernels

# Exact-hit snap tolerance for time queries, as a fraction of the step.
GRID_SNAP = 1e-12
# Relative tolerance for "delay is an integer multiple of the step".
DELAY_MULTIPLE_RTOL = 1e-9


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


def hermite_slope(x0, x1, d0, d1, h, theta):
    """Time derivative of the cubic Hermite interpolant at theta."""
    t2 = theta * theta
    return (
        (6.0 * t2 - 6.0 * theta) * (x0 - x1) / h
        + (3.0 * t2 - 4.0 * theta + 1.0) * d0
        + (3.0 * t2 - 2.0 * theta) * d1
    )


@dataclass(frozen=True)
class HistoryBuffer:
    """Uniformly sampled past rates with their derivatives.

    Sample j sits at time origin + j*step.  The pre-history produced by
    :func:`make_history` stores derivative 0 everywhere: it is given data,
    not dynamics.
    """

    step: float
    origin: float
    x: np.ndarray
    dxdt: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    @property
    def t_last(self) -> float:
        return self.origin + (len(self.x) - 1) * self.step

    @property
    def span(self) -> float:
        return (len(self.x) - 1) * self.step

    def lookup(self, t_query: float) -> tuple[float, float]:
        """Value and derivative at t_query: stored sample on a grid hit
        (within GRID_SNAP*step), cubic Hermite between samples otherwise."""
        rel = (t_query - self.origin) / self.step
        n = len(self.x)
        # Range slack scales with rel: the division itself carries ~rel*eps noise.
        tol = GRID_SNAP * max(1.0, n - 1.0)
        if rel < -tol or rel > (n - 1) + tol:
            raise HistoryRangeError(
                f"t = {t_query} outside buffered span [{self.origin}, {self.t_last}]"
            )
        j = int(math.floor(rel))
        j = min(max(j, 0), n - 2) if n > 1 else 0
        theta = rel - j
        if abs(theta) <= tol:
            return float(self.x[j]), float(self.dxdt[j])
        if abs(theta - 1.0) <= tol:
            return float(self.x[j + 1]), float(self.dxdt[j + 1])
        x = hermite_value(self.x[j], self.x[j + 1], self.dxdt[j], self.dxdt[j + 1], self.step, theta)
        d = hermite_slope(self.x[j], self.x[j + 1], self.dxdt[j], self.dxdt[j + 1], self.step, theta)
        return float(x), float(d)


def lookup(buffer: HistoryBuffer, t_query: float) -> tuple[float, float]:
    """Module-level alias of :meth:`HistoryBuffer.lookup`."""
    return buffer.lookup(t_query)


def make_history(step: float, span: float, init) -> HistoryBuffer:
    """Populate a buffer over [-span, 0] from a constant or a callable t -> x.

    Every produced value must be strictly positive (rates are positive by
    assumption); a violating value is rejected together with the offending
    time.  Derivatives are stored as 0.
    """
    if not (math.isfinite(step) and step > 0):
        raise GridMismatchError(f"history step must be positive, got {step}")
    if not (math.isfinite(span) and span > 0):
        raise GridMismatchError(f"history span must be positive, got {span}")
    n = span / step
    n_int = round(n)
    if n_int < 1 or abs(n - n_int) > DELAY_MULTIPLE_RTOL * max(1.0, n):
        raise GridMismatchError(
            f"history span {span} is not an integer multiple of step {step}"
        )
    fn = init if callable(init) else (lambda _t, _v=float(init): _v)
    xs = np.empty(n_int + 1)
    for j in range(n_int + 1):
        t = (j - n_int) * step
        v = float(fn(t))
        if not (math.isfinite(v) and v > 0):
            raise ModelDomainError(
                f"initial history must be strictly positive, got {v} at t = {t}"
            )
        xs[j] = v
    return HistoryBuffer(step=step, origin=-n_int * step, x=xs, dxdt=np.zeros(n_int + 1))


@dataclass(frozen=True)
class Trajectory:
    """Integration output on the uniform grid [t_start, t_end].

    ``c`` is the capacity g(x) at each sample and ``dxdt`` the accepted
    (projected) rate derivative.  ``params`` and ``law`` echo the inputs that
    produced the run.
    """

    step: float
    t_start: float
    t_end: float
    t: np.ndarray
    x: np.ndarray
    c: np.ndarray
    dxdt: np.ndarray
    params: ModelParams
    law: CapacityLaw

    def interp_x(self, t_query):
        """Hermite-interpolated x at scalar or array times within the span."""
        tq = np.asarray(t_query, dtype=float)
        rel = (tq - self.t_start) / self.step
        n = len(self.x)
        tol = GRID_SNAP * max(1.0, n - 1.0)
        out_of_range = (rel < -tol) | (rel > (n - 1) + tol)
        if np.any(out_of_range):
            bad = tq.flat[int(np.argmax(out_of_range))]
            raise HistoryRangeError(
                f"t = {bad} outside trajectory span [{self.t_start}, {self.t_end}]"
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
    k = delay / step
    k_int = round(k)
    if k_int < 1 or abs(k - k_int) > DELAY_MULTIPLE_RTOL * max(1.0, k):
        raise GridMismatchError(
            f"{name} = {delay} is not an integer multiple of step = {step}"
        )
    return k_int


def integrate(
    params: ModelParams,
    law: CapacityLaw,
    history: HistoryBuffer,
    t_end: float,
    step: float,
) -> Trajectory:
    """Advance the delayed rate dynamics with classical RK4 over [0, t_end].

    Stage derivatives use the derivative projection at the rate bounds, and
    delayed arguments come from the growing history: grid-aligned delays are
    read exactly, half-grid stage times through the cubic Hermite midpoint
    of the enclosing interval.  The accepted state is projected into
    [x_min, x_max] and recorded with its projected derivative.  t_end is
    rounded to the nearest whole number of steps; the trajectory reports the
    grid-aligned horizon actually covered.

    Each step evaluates every distinct quantity once: the recorded
    derivative of the previous step is this step's first stage (first same
    as last), and the delayed price flow is computed once per distinct
    delayed time, shared by k2/k3 at t + step/2 and by k4 and the recorded
    derivative at t + step (see :func:`model.stage_kernels`).  That is four
    projected slopes and two price flows per step, with the floating-point
    operations of the plain five-stage loop in the same order, so results
    are bit-identical to it.

    Two runs with identical inputs produce bit-identical trajectories: the
    loop is sequential pure-float arithmetic with no ambient state.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise GridMismatchError(f"t_end must be positive, got {t_end}")
    if not (math.isfinite(step) and step > 0):
        raise GridMismatchError(f"step must be positive, got {step}")
    if abs(history.step - step) > GRID_SNAP * step:
        raise GridMismatchError(
            f"history step {history.step} does not match integration step {step}"
        )
    k_tau = _delay_steps(params.tau, step, "tau")
    k_t = _delay_steps(params.T_delay, step, "T_delay")
    if history.span < params.max_delay - DELAY_MULTIPLE_RTOL * step:
        raise GridMismatchError(
            f"history span {history.span} shorter than max delay {params.max_delay}"
        )
    if abs(history.t_last) > DELAY_MULTIPLE_RTOL * step:
        raise GridMismatchError(
            f"history must end at t = 0 to start a run, ends at {history.t_last}"
        )

    n_steps = round(t_end / step)
    if n_steps < 1:
        raise GridMismatchError(f"t_end = {t_end} shorter than one step {step}")
    n_pre = len(history) - 1
    t0 = 0.0

    # Flat working arrays over [-span, t_end]; index i0 is t = 0.  The
    # junction at t = 0 carries two one-sided derivatives: ds[i0] stays the
    # stored pre-history value (data side, left of 0) while d0_dyn holds the
    # dynamic derivative used for the interval [0, step].
    xs = list(map(float, history.x)) + [0.0] * n_steps
    ds = list(map(float, history.dxdt)) + [0.0] * n_steps
    i0 = n_pre
    x_min, x_max = params.x_min, params.x_max
    flow, slope = stage_kernels(params, law)

    def diverged(exc: Exception, t_now: float) -> IntegrationDivergedError:
        return IntegrationDivergedError(
            f"integration left the model domain at t = {t_now:.6g}: {exc}", t_now
        )

    half = 0.5 * step
    sixth = step / 6.0
    eighth = 0.125 * step
    try:
        d0_dyn = slope(xs[i0], flow(xs[i0], xs[i0 - k_tau], xs[i0 - k_t]))
    except (ModelDomainError, OverflowError, ZeroDivisionError) as exc:
        raise diverged(exc, t0) from exc
    k1 = d0_dyn
    for i in range(i0, i0 + n_steps):
        x = xs[i]
        # Hermite midpoints of the intervals starting at i - k_t and i - k_tau
        j = i - k_t
        xd_t = 0.5 * (xs[j] + xs[j + 1]) + eighth * (
            (d0_dyn if j == i0 else ds[j]) - ds[j + 1]
        )
        j = i - k_tau
        xd_tau = 0.5 * (xs[j] + xs[j + 1]) + eighth * (
            (d0_dyn if j == i0 else ds[j]) - ds[j + 1]
        )
        try:
            x_half = x + half * k1
            f = flow(x_half, xd_tau, xd_t)
            k2 = slope(x_half, f)
            k3 = slope(x + half * k2, f)
        except (ModelDomainError, OverflowError, ZeroDivisionError) as exc:
            raise diverged(exc, t0 + (i - i0) * step + half) from exc
        try:
            x_full = x + step * k3
            f = flow(x_full, xs[i + 1 - k_tau], xs[i + 1 - k_t])
            k4 = slope(x_full, f)
            x_next = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if not math.isfinite(x_next):
                t = t0 + (i - i0) * step + step
                raise IntegrationDivergedError(
                    f"state became non-finite at t = {t:.6g}", t
                )
            if x_next > x_max:
                x_next = x_max
            elif x_next < x_min:
                x_next = x_min
            xs[i + 1] = x_next
            k1 = ds[i + 1] = slope(x_next, f)
        except (ModelDomainError, OverflowError, ZeroDivisionError) as exc:
            raise diverged(exc, t0 + (i - i0) * step + step) from exc

    t_arr = t0 + step * np.arange(n_steps + 1)
    x_arr = np.array(xs[i0:], dtype=float)
    d_arr = np.array(ds[i0:], dtype=float)
    d_arr[0] = d0_dyn
    c_arr = law.value(x_arr)
    if not np.all(c_arr > 0):
        i_bad = int(np.argmax(c_arr <= 0))
        raise IntegrationDivergedError(
            f"capacity nonpositive at t = {t_arr[i_bad]:.6g} (x = {x_arr[i_bad]:.6g})",
            float(t_arr[i_bad]),
        )
    return Trajectory(
        step=step,
        t_start=t0,
        t_end=float(t_arr[-1]),
        t=t_arr,
        x=x_arr,
        c=c_arr,
        dxdt=d_arr,
        params=params,
        law=law,
    )
