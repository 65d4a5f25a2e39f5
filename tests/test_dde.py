import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratelab import (
    CapacityLaw,
    IntegrationDivergedError,
    ModelDomainError,
    ModelParams,
    Trajectory,
    capacity,
    integrate,
    load_scenario,
    solve_equilibrium,
)
from ratelab import dde
from conftest import BASE_LAW, SCENARIOS, base_params
from oracle import clamp, price_flow, rhs


def with_stiffness_hint(err, rates, params, step):
    """``err`` as integrate reports it: RK4 is unstable on the instantaneous
    term's Jacobian -kappa*a*x**-(a+1) below x = (kappa*a*step/2.785)**(1/(a+1)).
    When the least positive of ``rates`` (the recorded rates and the failing
    step's first-stage rate) is below that bound, the message names it and the
    largest step stable at that rate, 2.785*x**(a+1)/(kappa*a), or says that
    no positive float step is when that step underflows to 0."""
    kappa, a = params.kappa, params.a
    x_low = min(x for x in rates if x > 0)
    x_bound = (kappa * a * step / 2.785) ** (1.0 / (a + 1.0))
    if not x_low < x_bound:
        return err
    h_max = 2.785 * x_low ** (a + 1.0) / (kappa * a)
    return IntegrationDivergedError(
        f"{err}; rate {x_low:.6g} is below the RK4 stiffness bound "
        f"(kappa*a*step/2.785)**(1/(a+1)) = {x_bound:.6g}, and "
        + (f"the largest step stable at that rate is {h_max:.6g}" if h_max > 0
           else "no positive float step is stable at that rate"),
        err.t_fail,
    )


def reference_integrate(params, law, init_x, t_end, step):
    """The plain five-stage RK4 loop (one full stage evaluation per stage,
    plus one for the recorded derivative), kept as the oracle that the
    fused loop in :func:`integrate` must match bit for bit."""
    k_tau, k_t = round(params.tau / step), round(params.T_delay / step)
    n_steps = round(t_end / step)
    i0 = max(k_tau, k_t)
    xs = [float(init_x)] * (i0 + 1) + [0.0] * n_steps
    ds = [0.0] * (i0 + 1 + n_steps)

    def x_at_half(jh):
        j, r = divmod(jh, 2)
        if r == 0:
            return xs[j]
        d0 = d0_dyn if j == i0 else ds[j]
        return 0.5 * (xs[j] + xs[j + 1]) + 0.125 * step * (d0 - ds[j + 1])

    def stage(jh, x_now, t_now, recorded=False):
        xd_tau, xd_t = x_at_half(jh - 2 * k_tau), x_at_half(jh - 2 * k_t)
        try:
            if recorded:  # a recorded rate must have positive capacity
                capacity(law, x_now)
            d = rhs(x_now, xd_tau, capacity(law, xd_t), params)
        except ModelDomainError as exc:
            raise IntegrationDivergedError(
                f"integration left the model domain at t = {t_now:.6g}: {exc}", t_now
            ) from exc
        except (OverflowError, ZeroDivisionError) as exc:
            raise IntegrationDivergedError(
                f"the step's arithmetic exceeds the float range at t = {t_now:.6g}", t_now
            ) from exc
        return clamp(x_now, d, params)

    half, sixth = 0.5 * step, step / 6.0
    # a failure in step i has recorded xs[:i + 1] and reached x_half first
    i, x_half = i0, xs[i0]
    try:
        d0_dyn = stage(2 * i0, xs[i0], 0.0)
        for i in range(i0, i0 + n_steps):
            t, x, jh = (i - i0) * step, xs[i], 2 * i
            k1 = stage(jh, x, t)
            x_half = x + half * k1
            k2 = stage(jh + 1, x_half, t + half)
            k3 = stage(jh + 1, x + half * k2, t + half)
            k4 = stage(jh + 2, x + step * k3, t + step)
            x_next = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if not math.isfinite(x_next):
                raise IntegrationDivergedError(
                    f"state became non-finite at t = {t + step:.6g}", t + step
                )
            xs[i + 1] = min(max(x_next, params.x_min), params.x_max)
            ds[i + 1] = stage(jh + 2, xs[i + 1], t + step, recorded=True)
    except IntegrationDivergedError as err:
        raise with_stiffness_hint(err, [*xs[:i + 1], x_half], params, step) from err.__cause__
    d_arr = np.array(ds[i0:])
    d_arr[0] = d0_dyn
    return np.array(xs[i0:]), d_arr


class TestMakeHistory:
    """integrate makes the constant pre-history from init_x itself and
    refuses initial data or a grid it cannot build one from."""

    def test_zero_init_rejected(self):
        with pytest.raises(ModelDomainError, match="init_x"):
            integrate(base_params(0.2), BASE_LAW, 0.0, 1.0, 0.01)

    @pytest.mark.parametrize("init_x", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_init_rejected(self, init_x):
        with pytest.raises(ModelDomainError, match="init_x"):
            integrate(base_params(0.2), BASE_LAW, init_x, 1.0, 0.01)

    @pytest.mark.parametrize("step,t_end", [(0.0, 1.0), (-0.1, 1.0)])
    def test_nonpositive_grid_rejected(self, step, t_end):
        with pytest.raises(ModelDomainError, match=f"step must be positive, got {step}"):
            integrate(base_params(0.2), BASE_LAW, 1.0, t_end, step)

    def test_a_delay_within_the_tolerance_of_zero_steps_is_refused(self):
        # T_delay / step = 1e-10 rounds to 0 steps: no whole number of them
        p = base_params(0.2, T_delay=1e-12)
        with pytest.raises(ModelDomainError,
                           match="^T_delay = 1e-12 is not an integer multiple of step = 0.01$"):
            integrate(p, BASE_LAW, 1.0, 1.0, 0.01)

    def test_span_must_align_with_step(self):
        # the pre-history spans max(tau, T) = 1.0, not a multiple of 0.3
        p = base_params(0.2, tau=1.0, T_delay=0.6)
        with pytest.raises(ModelDomainError, match="tau = 1.0 is not an integer multiple"):
            integrate(p, BASE_LAW, 1.0, 1.0, 0.3)


class TestInterpX:
    @staticmethod
    def cubic_trajectory():
        # exact node values and slopes of x = t**3 on [0, 4]
        ts = np.arange(5, dtype=float)
        return Trajectory(step=1.0, t_end=4.0, t=ts, x=ts**3,
                          c=BASE_LAW.value(ts**3), dxdt=3.0 * ts**2,
                          params=base_params(0.2), law=BASE_LAW)

    def test_cubic_data_reproduced(self):
        # Hermite is exact for cubics given exact node values and slopes
        traj = self.cubic_trajectory()
        ts = np.array([0.3, 1.7, 2.25, 3.9])
        for t in ts:
            assert traj.interp_x(t) == pytest.approx(t**3, rel=1e-13)
        np.testing.assert_allclose(traj.interp_x(ts), ts**3, rtol=1e-13)

    def test_snap_width_is_grid_snap_per_node(self):
        # 5 samples: a query within GRID_SNAP * 4 = 4e-12 steps of node 2 reads
        # its sample, and one 2e-11 steps away, inside ten snap widths, the
        # Hermite value, 2.4e-10 above the sample
        traj = self.cubic_trajectory()
        assert traj.interp_x(2.0 + 2e-12) == 8.0
        assert traj.interp_x(2.0 + 2e-11) == pytest.approx((2.0 + 2e-11) ** 3, rel=1e-15)
        assert traj.interp_x(2.0 + 2e-11) != 8.0

    def test_out_of_range_names_span(self):
        traj = self.cubic_trajectory()
        with pytest.raises(ModelDomainError, match=r"\[0.0, 4.0\]"):
            traj.interp_x(-0.1)
        with pytest.raises(ModelDomainError, match="t = 4.5"):
            traj.interp_x(np.array([1.0, 4.5]))

    def test_a_nan_time_is_outside_the_span(self):
        # NaN fails every comparison, so the span test is written to pass only
        # a time inside it; the first bad time is the one named
        traj = self.cubic_trajectory()
        span = r"^t = nan outside trajectory span \[0\.0, 4\.0\]$"
        with pytest.raises(ModelDomainError, match=span):
            traj.interp_x(math.nan)
        with pytest.raises(ModelDomainError, match="^t = nan outside"):
            traj.interp_x(np.array([1.0, math.nan, 4.5]))
        with pytest.raises(ModelDomainError, match="^t = 4.5 outside"):
            traj.interp_x(np.array([1.0, 4.5, math.nan]))


class TestStageKernels:
    @given(
        x=st.floats(min_value=1e-3, max_value=1e3),
        x_d=st.floats(min_value=1e-2, max_value=1e2),
        x_c=st.floats(min_value=0.0, max_value=4.99),
        b=st.floats(min_value=0.1, max_value=3.0),
        h=st.floats(min_value=0.5, max_value=2.0),
    )
    def test_bitwise_equal_to_projected_rhs(self, x, x_d, x_c, b, h):
        p = ModelParams(kappa=1.7, a=1.5, b=b, tau=1.0, T_delay=1.0, h_gain=h,
                        x_min=0.01, x_max=50.0)
        c_d = capacity(BASE_LAW, x_c)
        f = dde.flow(p, BASE_LAW, x, x_d, x_c)
        assert f == price_flow(x_d, c_d, p)
        assert dde.slope(p, x, f) == clamp(x, rhs(x, x_d, c_d, p), p)

    @pytest.mark.parametrize(
        "x_now, x_d, x_c, match",
        [
            (-1.0, -1.0, 6.0, "capacity law returned"),
            (-1.0, -1.0, 1.0, "x_now > 0"),
            (1.0, float("nan"), 1.0, "x_delayed > 0"),
        ],
    )
    def test_checks_in_rhs_order(self, x_now, x_d, x_c, match):
        p = base_params(0.8)
        with pytest.raises(ModelDomainError, match=match) as got:
            dde.flow(p, BASE_LAW, x_now, x_d, x_c)
        with pytest.raises(ModelDomainError) as ref:
            rhs(x_now, x_d, capacity(BASE_LAW, x_c), p)
        assert str(got.value) == str(ref.value)
        with pytest.raises(ModelDomainError, match="x_now > 0"):
            dde.slope(p, 0.0, 1.0)


def _scenario_run(name):
    cfg = load_scenario(SCENARIOS / f"{name}.scenario")
    return cfg.params, cfg.law, cfg.init_x, cfg.t_end, cfg.step


def _run(t_end=60.0, init_x=1.0, law=BASE_LAW, **overrides):
    p = base_params(overrides.pop("b", 0.8), **overrides)
    return p, law, init_x, t_end, 0.01


class TestFusedStepMatchesReference:
    @pytest.mark.parametrize(
        "args",
        [
            pytest.param(lambda: _scenario_run("fig1"), id="fig1"),
            pytest.param(lambda: _scenario_run("fig2"), id="fig2"),
            pytest.param(lambda: _run(x_max=1.2), id="x_max-projection"),
            pytest.param(lambda: _run(init_x=0.5, x_min=0.9), id="x_min-projection"),
            pytest.param(lambda: _run(tau=2.0, T_delay=2.0), id="tau-equals-T"),
            pytest.param(lambda: _run(b=0.5, h_gain=1.3, kappa=0.7), id="h-gain"),
            pytest.param(
                lambda: _run(law=CapacityLaw(4.0), b=0.2), id="constant-law"
            ),
        ],
    )
    def test_bitwise_equal(self, args):
        inputs = args()
        traj = integrate(*inputs)
        x_ref, d_ref = reference_integrate(*inputs)
        assert np.array_equal(traj.x, x_ref)
        assert np.array_equal(traj.dxdt, d_ref)

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(dict(kappa=10.0, init_x=0.05, b=0.2), id="exhausted-half-step"),
            pytest.param(dict(kappa=10.0, init_x=0.05, b=0.8), id="exhausted-full-step"),
            pytest.param(dict(kappa=10.0, init_x=0.5, b=0.8), id="negative-rate"),
            # fails on a negative rate at t = 0.005, before any state is non-finite
            pytest.param(dict(kappa=1e9), id="negative-rate-stiff"),
            # x0**-a overflows at t = 0, where no positive float step is stable
            pytest.param(dict(a=300.0, init_x=0.05), id="overflow-at-start"),
            # the delayed rate leaves init_x = 1 after tau, and its power b + 1 overflows
            pytest.param(dict(b=1e300), id="overflow-in-step"),
        ],
    )
    def test_same_failure(self, overrides):
        inputs = _run(t_end=30.0, **overrides)
        with pytest.raises(IntegrationDivergedError) as ref:
            reference_integrate(*inputs)
        with pytest.raises(IntegrationDivergedError) as got:
            integrate(*inputs)
        assert str(got.value) == str(ref.value)
        assert got.value.t_fail == ref.value.t_fail
        assert type(got.value.__cause__) is type(ref.value.__cause__)

    def test_exhaustion_case_exhausts_capacity(self):
        with pytest.raises(IntegrationDivergedError, match="capacity law returned"):
            integrate(*_run(t_end=30.0, kappa=10.0, init_x=0.05, b=0.2))


HYP_STEP = 0.05


@st.composite
def loop_inputs(draw):
    """Random inputs to integrate on a 0.05 grid: wide model constants,
    either law, rate bounds from tight (projection every step) to loose, and
    horizons up to 15.  Some draws exhaust the capacity or drive the rate
    negative; both loops must then fail alike."""
    k_t = draw(st.integers(1, 40))
    k_tau = draw(st.integers(k_t, 60))
    x_min = 10.0 ** draw(st.floats(-3.0, 0.3))
    x_max = x_min * 10.0 ** draw(st.floats(0.01, 3.0))
    params = ModelParams(
        kappa=10.0 ** draw(st.floats(-2.0, 3.0)),
        a=draw(st.floats(0.1, 4.0)),
        b=draw(st.floats(0.05, 3.0)),
        tau=k_tau * HYP_STEP,
        T_delay=k_t * HYP_STEP,
        h_gain=draw(st.floats(0.1, 5.0)),
        x_min=x_min,
        x_max=x_max,
    )
    if draw(st.booleans()):
        law = CapacityLaw(draw(st.floats(0.5, 10.0)), draw(st.floats(0.1, 5.0)))
    else:
        law = CapacityLaw(draw(st.floats(0.5, 10.0)))
    init_x = min(x_min + draw(st.floats(0.0, 1.0)) * (x_max - x_min), x_max)
    t_end = draw(st.integers(1, 300)) * HYP_STEP
    return params, law, init_x, t_end, HYP_STEP


@settings(max_examples=50, deadline=None)
@given(inputs=loop_inputs())
# no draw reaches these branches: pinned by hand
@example(inputs=(  # x_min**-a near the float ceiling: k1 + 2*(k2 + k3) overflows
    ModelParams(kappa=1e8, a=1.0, b=0.2, tau=0.05, T_delay=0.05, x_min=1e-300, x_max=1.0),
    CapacityLaw(1.0), 1e-300, 1.0, HYP_STEP,
))
@example(inputs=(  # a stage power overflows at t = 0.625
    ModelParams(kappa=5.2, a=4.9, b=18.0, tau=0.6, T_delay=0.2, h_gain=110.0,
                x_min=3.9e-09, x_max=1.5e-07),
    CapacityLaw(0.0001), 1.1e-07, 1.0, HYP_STEP,
))
@example(inputs=(  # a recorded rate lies past the capacity root 83.9/36
    ModelParams(kappa=10.0, a=3.2, b=16.0, tau=0.4, T_delay=0.4, h_gain=520.0,
                x_min=0.074, x_max=5.3),
    CapacityLaw(83.9, 36.0), 2.1, 0.3, HYP_STEP,
))
# the lag edges of the grid and midpoint reads
@example(inputs=(  # tau = T = step: both grid reads trail the newest sample by one
    ModelParams(kappa=3.0, a=1.5, b=0.8, tau=HYP_STEP, T_delay=HYP_STEP),
    CapacityLaw(5.0, 1.0), 0.6, 300 * HYP_STEP, HYP_STEP,
))
@example(inputs=(  # T = step < tau: one read trails by one, the other by nine
    ModelParams(kappa=2.0, a=1.5, b=1.5, tau=9 * HYP_STEP, T_delay=HYP_STEP),
    CapacityLaw(5.0, 1.0), 1.0, 300 * HYP_STEP, HYP_STEP,
))
@example(inputs=(  # t_end is one step: the loop runs once, on pre-history only
    ModelParams(kappa=2.0, a=1.5, b=0.2, tau=60 * HYP_STEP, T_delay=40 * HYP_STEP),
    CapacityLaw(5.0, 1.0), 2.0, HYP_STEP, HYP_STEP,
))
@example(inputs=(  # fewer steps than k_t: no read reaches a computed sample
    ModelParams(kappa=2.0, a=1.5, b=0.2, tau=60 * HYP_STEP, T_delay=40 * HYP_STEP),
    CapacityLaw(5.0, 1.0), 2.0, 7 * HYP_STEP, HYP_STEP,
))
def test_loop_matches_reference_on_random_inputs(inputs):
    # the inline interior stages and the flow/slope fallback, against the plain loop
    try:
        x_ref, d_ref = reference_integrate(*inputs)
    except IntegrationDivergedError as ref:
        with pytest.raises(IntegrationDivergedError) as got:
            integrate(*inputs)
        assert str(got.value) == str(ref)
        assert got.value.t_fail == ref.t_fail
        assert type(got.value.__cause__) is type(ref.__cause__)
        return
    traj = integrate(*inputs)
    assert np.array_equal(traj.x, x_ref)
    assert np.array_equal(traj.dxdt, d_ref)
    # integrate's grid reads skip the x_delayed > 0 test on this invariant
    params = inputs[0]
    assert params.x_min <= traj.x.min()
    assert traj.x.max() <= params.x_max
    assert np.all(traj.c > 0)


class TestIntegrate:
    def test_equilibrium_is_fixed_point(self):
        p = base_params(0.2)
        eq = solve_equilibrium(p, BASE_LAW)
        traj = integrate(p, BASE_LAW, eq.x_star, 200.0, 0.01)
        assert np.abs(traj.x - eq.x_star).max() <= 1e-9 * eq.x_star

    def test_single_step_delays_converge_monotonically(self):
        # tau = T = step behaves like the undelayed scalar flow: no overshoot
        p = base_params(0.8, tau=0.01, T_delay=0.01)
        eq = solve_equilibrium(p, BASE_LAW)
        traj = integrate(p, BASE_LAW, 1.0, 60.0, 0.01)
        assert np.all(np.diff(traj.x) >= -1e-15)
        assert abs(traj.x[-1] - 1.3671540410) < 1e-6
        assert abs(traj.x[-1] - eq.x_star) < 1e-6

    def test_order_of_accuracy_quick(self):
        # coarse-grid version of the step-halving check; the acceptance suite
        # runs the full one at t = 50
        p = base_params(0.2)

        def x_end(step):
            traj = integrate(p, BASE_LAW, 1.0, 20.0, step)
            return traj.x[-1]

        errs = [abs(x_end(s) - x_end(s / 8.0)) for s in (0.05, 0.025)]
        assert errs[0] / errs[1] >= 4.0

    def test_deterministic_bitwise(self):
        p = base_params(0.8)
        t1 = integrate(p, BASE_LAW, 1.0, 50.0, 0.01)
        t2 = integrate(p, BASE_LAW, 1.0, 50.0, 0.01)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.dxdt, t2.dxdt)
        assert np.array_equal(t1.c, t2.c)

    def test_bounds_respected_under_clamping(self):
        # ceiling below the transient peak forces the projection path
        p = base_params(0.8, x_max=1.2)
        traj = integrate(p, BASE_LAW, 1.0, 60.0, 0.01)
        assert traj.x.max() <= 1.2
        assert traj.x.min() >= p.x_min
        assert np.any(traj.x == 1.2)
        # at the ceiling the recorded derivative never points outward
        assert np.all(traj.dxdt[traj.x >= 1.2] <= 0.0)

    def test_positivity_of_samples(self, fig1_result):
        traj = fig1_result.trajectory
        assert np.all(traj.x > 0)
        assert np.all(traj.c > 0)

    def test_interp_matches_samples_on_grid(self, fig2_result):
        traj = fig2_result.trajectory
        idx = np.array([0, 1, 777, 20000])
        assert np.array_equal(traj.interp_x(traj.t[idx]), traj.x[idx])

    def test_initial_derivative_recorded(self, fig1_result):
        # accepted derivative at t = 0 equals the projected vector field there
        assert fig1_result.trajectory.dxdt[0] == pytest.approx(0.6701230223067765, rel=1e-13)

    def test_delay_not_multiple_of_step(self):
        p = base_params(0.2, tau=3.005)
        with pytest.raises(ModelDomainError, match="tau = 3.005 is not an integer multiple"):
            integrate(p, BASE_LAW, 1.0, 1.0, 0.01)

    def test_nonpositive_t_end(self):
        p = base_params(0.2)
        with pytest.raises(ModelDomainError, match="t_end must be positive, got 0.0"):
            integrate(p, BASE_LAW, 1.0, 0.0, 0.01)
        # positive, but it rounds to no whole step
        with pytest.raises(ModelDomainError, match="t_end = 0.004 shorter than one step 0.01"):
            integrate(p, BASE_LAW, 1.0, 0.004, 0.01)

    @pytest.mark.parametrize("overrides, t_end, step", [
        ({}, 1.75e308, 0.01),  # t_end / step
        ({"tau": 1e308}, 1.0, 1e-300),  # tau / step, while t_end / step fits
    ], ids=["t_end", "tau"])
    def test_step_count_past_the_float_range(self, overrides, t_end, step):
        p = base_params(0.2, **overrides)
        with pytest.raises(ModelDomainError, match=r"max\(t_end, tau\) / step overflows"):
            integrate(p, BASE_LAW, 1.0, t_end, step)

    def test_divergence_reports_failure_time(self):
        p = base_params(0.8, kappa=1e9)
        with pytest.raises(IntegrationDivergedError) as exc_info:
            integrate(p, BASE_LAW, 1.0, 10.0, 0.01)
        assert 0.0 < exc_info.value.t_fail <= 10.0

    def test_horizon_rounded_to_grid(self):
        p = base_params(0.2)
        traj = integrate(p, BASE_LAW, 1.0, 1.004, 0.01)
        assert len(traj.x) == 101
        assert traj.t_end == pytest.approx(1.0)
