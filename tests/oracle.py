"""The right-hand side written out one formula per function: the oracle that
``model.stage_kernels`` and the fused loop in ``dde.integrate`` must match
bit for bit, in values and in error messages."""

from ratelab.model import ModelParams, _require_positive


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
