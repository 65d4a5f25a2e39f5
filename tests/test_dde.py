import math

import numpy as np
import pytest

from ratelab import (
    CapacityLaw,
    GridMismatchError,
    HistoryRangeError,
    IntegrationDivergedError,
    ModelDomainError,
    capacity,
    clamp,
    integrate,
    load_scenario,
    lookup,
    make_history,
    rhs,
    solve_equilibrium,
)
from ratelab.dde import HistoryBuffer
from conftest import BASE_LAW, SCENARIOS, base_params


def reference_integrate(params, law, history, t_end, step):
    """The plain five-stage RK4 loop (one full stage evaluation per stage,
    plus one for the recorded derivative), kept as the oracle that the
    fused loop in :func:`integrate` must match bit for bit."""
    k_tau, k_t = round(params.tau / step), round(params.T_delay / step)
    n_steps = round(t_end / step)
    xs = list(map(float, history.x)) + [0.0] * n_steps
    ds = list(map(float, history.dxdt)) + [0.0] * n_steps
    i0 = len(history) - 1

    def x_at_half(jh):
        j, r = divmod(jh, 2)
        if r == 0:
            return xs[j]
        d0 = d0_dyn if j == i0 else ds[j]
        return 0.5 * (xs[j] + xs[j + 1]) + 0.125 * step * (d0 - ds[j + 1])

    def stage(jh, x_now, t_now):
        xd_tau, xd_t = x_at_half(jh - 2 * k_tau), x_at_half(jh - 2 * k_t)
        try:
            d = rhs(x_now, xd_tau, capacity(law, xd_t), params)
        except (ModelDomainError, OverflowError, ZeroDivisionError) as exc:
            raise IntegrationDivergedError(
                f"integration left the model domain at t = {t_now:.6g}: {exc}", t_now
            ) from exc
        return clamp(x_now, d, params)

    half, sixth = 0.5 * step, step / 6.0
    d0_dyn = stage(2 * i0, xs[i0], 0.0)
    for i in range(i0, i0 + n_steps):
        t, x, jh = (i - i0) * step, xs[i], 2 * i
        k1 = stage(jh, x, t)
        k2 = stage(jh + 1, x + half * k1, t + half)
        k3 = stage(jh + 1, x + half * k2, t + half)
        k4 = stage(jh + 2, x + step * k3, t + step)
        x_next = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not math.isfinite(x_next):
            raise IntegrationDivergedError(
                f"state became non-finite at t = {t + step:.6g}", t + step
            )
        xs[i + 1] = min(max(x_next, params.x_min), params.x_max)
        ds[i + 1] = stage(jh + 2, xs[i + 1], t + step)
    d_arr = np.array(ds[i0:])
    d_arr[0] = d0_dyn
    return np.array(xs[i0:]), d_arr


class TestMakeHistory:
    def test_benchmark_history(self):
        buf = make_history(0.01, 3.0, 1.0)
        assert len(buf) == 301
        assert np.all(buf.x == 1.0)
        assert np.all(buf.dxdt == 0.0)
        assert buf.origin == -3.0
        assert buf.t_last == 0.0

    def test_coarse_constant(self):
        buf = make_history(1.0, 2.0, 4.0)
        assert len(buf) == 3
        assert [buf.origin + j * buf.step for j in range(3)] == [-2.0, -1.0, 0.0]
        assert np.all(buf.x == 4.0)

    def test_callable_init(self):
        buf = make_history(0.5, 2.0, lambda t: 2.0 + t / 10.0)
        assert buf.x[0] == pytest.approx(1.8)
        assert buf.x[-1] == pytest.approx(2.0)

    def test_zero_init_rejected(self):
        with pytest.raises(ModelDomainError):
            make_history(0.01, 3.0, 0.0)

    def test_negative_value_names_offending_time(self):
        with pytest.raises(ModelDomainError, match="t = -1.0"):
            make_history(0.5, 2.0, lambda t: -1.0 if t == -1.0 else 1.0)

    @pytest.mark.parametrize("step,span", [(0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -2.0)])
    def test_nonpositive_grid_rejected(self, step, span):
        with pytest.raises(GridMismatchError):
            make_history(step, span, 1.0)

    def test_span_must_align_with_step(self):
        with pytest.raises(GridMismatchError):
            make_history(0.3, 1.0, 1.0)


class TestLookup:
    def test_constant_buffer(self):
        buf = make_history(0.01, 3.0, 1.0)
        for t in (-3.0, -2.71828, -1.0, -0.005, 0.0):
            x, d = lookup(buf, t)
            assert x == pytest.approx(1.0, abs=1e-15)
            assert d == pytest.approx(0.0, abs=1e-15)

    def test_linear_data_reproduced(self):
        buf = HistoryBuffer(step=1.0, origin=0.0, x=np.array([0.0, 1.0]), dxdt=np.array([1.0, 1.0]))
        x, d = buf.lookup(0.5)
        assert x == pytest.approx(0.5, abs=1e-15)
        assert d == pytest.approx(1.0, abs=1e-15)

    def test_cubic_data_reproduced(self):
        # Hermite is exact for cubics given exact node values and slopes
        ts = np.arange(5, dtype=float)
        buf = HistoryBuffer(step=1.0, origin=0.0, x=ts**3, dxdt=3.0 * ts**2)
        for t in (0.3, 1.7, 2.25, 3.9):
            x, d = buf.lookup(t)
            assert x == pytest.approx(t**3, rel=1e-13)
            assert d == pytest.approx(3 * t**2, rel=1e-13)

    def test_grid_hit_returns_stored_sample(self):
        buf = make_history(0.01, 3.0, lambda t: 1.0 + t * t)
        x, d = buf.lookup(-1.0)
        assert x == buf.x[200]
        assert d == buf.dxdt[200]

    def test_out_of_range_names_span(self):
        buf = make_history(1.0, 3.0, 1.0)
        with pytest.raises(HistoryRangeError, match=r"\[-3.0, 0.0\]"):
            buf.lookup(-3.1)
        with pytest.raises(HistoryRangeError):
            buf.lookup(0.5)


def _scenario_run(name):
    cfg = load_scenario(SCENARIOS / f"{name}.scenario")
    history = make_history(cfg.step, cfg.params.max_delay, cfg.init_x)
    return cfg.params, cfg.law, history, cfg.t_end, cfg.step


def _run(t_end=60.0, init_x=1.0, law=BASE_LAW, **overrides):
    p = base_params(overrides.pop("b", 0.8), **overrides)
    return p, law, make_history(0.01, p.max_delay, init_x), t_end, 0.01


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
                lambda: _run(law=CapacityLaw.constant(4.0), b=0.2), id="constant-law"
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
            pytest.param(dict(kappa=1e9), id="non-finite"),
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


class TestIntegrate:
    def test_equilibrium_is_fixed_point(self):
        p = base_params(0.2)
        eq = solve_equilibrium(p, BASE_LAW)
        traj = integrate(p, BASE_LAW, make_history(0.01, 3.0, eq.x_star), 200.0, 0.01)
        assert np.abs(traj.x - eq.x_star).max() <= 1e-9 * eq.x_star

    def test_single_step_delays_converge_monotonically(self):
        # tau = T = step behaves like the undelayed scalar flow: no overshoot
        p = base_params(0.8, tau=0.01, T_delay=0.01)
        eq = solve_equilibrium(p, BASE_LAW)
        traj = integrate(p, BASE_LAW, make_history(0.01, 0.01, 1.0), 60.0, 0.01)
        assert np.all(np.diff(traj.x) >= -1e-15)
        assert abs(traj.x[-1] - 1.3671540410) < 1e-6
        assert abs(traj.x[-1] - eq.x_star) < 1e-6

    def test_order_of_accuracy_quick(self):
        # coarse-grid version of the step-halving check; the acceptance suite
        # runs the full one at t = 50
        p = base_params(0.2)

        def x_end(step):
            traj = integrate(p, BASE_LAW, make_history(step, 3.0, 1.0), 20.0, step)
            return traj.x[-1]

        errs = [abs(x_end(s) - x_end(s / 8.0)) for s in (0.05, 0.025)]
        assert errs[0] / errs[1] >= 4.0

    def test_deterministic_bitwise(self):
        p = base_params(0.8)
        t1 = integrate(p, BASE_LAW, make_history(0.01, 3.0, 1.0), 50.0, 0.01)
        t2 = integrate(p, BASE_LAW, make_history(0.01, 3.0, 1.0), 50.0, 0.01)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.dxdt, t2.dxdt)
        assert np.array_equal(t1.c, t2.c)

    def test_bounds_respected_under_clamping(self):
        # ceiling below the transient peak forces the projection path
        p = base_params(0.8, x_max=1.2)
        traj = integrate(p, BASE_LAW, make_history(0.01, 3.0, 1.0), 60.0, 0.01)
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
        with pytest.raises(GridMismatchError, match="tau"):
            integrate(p, BASE_LAW, make_history(0.01, 3.01, 1.0), 1.0, 0.01)

    def test_nonpositive_t_end(self):
        p = base_params(0.2)
        with pytest.raises(GridMismatchError):
            integrate(p, BASE_LAW, make_history(0.01, 3.0, 1.0), 0.0, 0.01)

    def test_history_too_short(self):
        p = base_params(0.2)
        with pytest.raises(GridMismatchError, match="span"):
            integrate(p, BASE_LAW, make_history(0.01, 2.0, 1.0), 1.0, 0.01)

    def test_history_step_mismatch(self):
        p = base_params(0.2)
        with pytest.raises(GridMismatchError, match="step"):
            integrate(p, BASE_LAW, make_history(0.02, 3.0, 1.0), 1.0, 0.01)

    def test_divergence_reports_failure_time(self):
        p = base_params(0.8, kappa=1e9)
        with pytest.raises(IntegrationDivergedError) as exc_info:
            integrate(p, BASE_LAW, make_history(0.01, 3.0, 1.0), 10.0, 0.01)
        assert 0.0 < exc_info.value.t_fail <= 10.0

    def test_horizon_rounded_to_grid(self):
        p = base_params(0.2)
        traj = integrate(p, BASE_LAW, make_history(0.01, 3.0, 1.0), 1.004, 0.01)
        assert len(traj.x) == 101
        assert traj.t_end == pytest.approx(1.0)
