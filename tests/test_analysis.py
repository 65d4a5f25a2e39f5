import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratelab import (
    CERTIFIED,
    CONVERGED,
    NOT_CERTIFIED,
    OSCILLATING,
    SATURATED,
    UNDETERMINED,
    CapacityExhaustedError,
    CapacityLaw,
    EquilibriumBracketError,
    HorizonError,
    ModelDomainError,
    ModelParams,
    check_stability,
    classify,
    lyapunov_value,
    lyapunov_values,
    price,
    solve_equilibrium,
    stability_margin,
    utility_derivative,
    validate_assumptions,
)
from ratelab import analysis
from conftest import BASE_LAW, base_params, synthetic_trajectory


class TestSolveEquilibrium:
    def test_benchmark_shallow_exponent(self):
        eq = solve_equilibrium(base_params(0.2), BASE_LAW)
        assert eq.x_star == pytest.approx(1.1059, abs=1e-3)
        assert eq.c_star == pytest.approx(3.8941, abs=1e-3)
        assert eq.x_star == pytest.approx(1.1059448952257895, rel=1e-12)
        assert eq.residual < 1e-10

    def test_benchmark_steep_exponent(self):
        eq = solve_equilibrium(base_params(0.8), BASE_LAW)
        assert eq.x_star == pytest.approx(1.368, abs=1e-3)
        assert eq.c_star == pytest.approx(3.632, abs=1e-3)
        assert eq.residual < 1e-10

    def test_unit_constant_law(self):
        # g == 1 forces x* = 1 for any exponents
        for a, b in ((1.5, 0.2), (0.7, 0.4), (2.0, 1.0)):
            eq = solve_equilibrium(
                ModelParams(kappa=1.0, a=a, b=b, tau=1.0, T_delay=1.0),
                CapacityLaw.constant(1.0),
            )
            assert eq.x_star == pytest.approx(1.0, abs=1e-12)

    def test_first_order_optimality(self):
        for b in (0.2, 0.5, 0.8):
            p = base_params(b)
            eq = solve_equilibrium(p, BASE_LAW)
            lhs = utility_derivative(eq.x_star, p.a)
            rhs_price = price(eq.x_star, eq.c_star, p.b, p.h_gain)
            assert lhs == pytest.approx(rhs_price, rel=1e-9)

    def test_small_b_power_overflow_maps_to_minus_inf(self):
        # x_max**((a+b+1)/b) = 1e3**251 overflows a float; the root is still found
        p = base_params(0.01)
        eq = solve_equilibrium(p, BASE_LAW)
        assert eq.x_star == pytest.approx(1.00553282, rel=1e-8)
        assert eq.residual < 1e-12

    def test_no_bracket(self):
        p = base_params(0.8, x_min=1.0)
        with pytest.raises(EquilibriumBracketError, match="sign change"):
            solve_equilibrium(p, CapacityLaw.constant(0.5))

    def test_deterministic(self):
        p = base_params(0.37)
        e1 = solve_equilibrium(p, BASE_LAW)
        e2 = solve_equilibrium(p, BASE_LAW)
        assert e1.x_star == e2.x_star

    def test_residual_function_strictly_decreasing(self):
        # decreasing g makes the fixed-point residual strictly decreasing,
        # which is what guarantees a unique root for any valid bracket
        for b in (0.15, 0.6, 1.1):
            p = base_params(b)
            exponent = (p.a + p.b + 1.0) / p.b
            xs = np.linspace(p.x_min, 4.0, 300)
            f_vals = BASE_LAW.value(xs) - xs ** exponent
            assert np.all(np.diff(f_vals) < 0)


class TestValidateAssumptions:
    def test_benchmark_law_single_slope_warning(self):
        violations = validate_assumptions(base_params(0.8), BASE_LAW, (0.5, 3.0), 64)
        assert len(violations) == 1
        v = violations[0]
        assert (v.assumption, v.severity) == ("A3", "warning")
        assert "-1" in v.description

    def test_delay_ordering_is_hard(self):
        p = ModelParams(kappa=1.0, a=1.5, b=0.2, tau=2.0, T_delay=3.0)
        violations = validate_assumptions(p, CapacityLaw.affine(5.0, 2.0), (0.5, 1.9), 64)
        hard = [v for v in violations if v.severity == "hard"]
        assert len(hard) == 1
        assert hard[0].assumption == "A1"

    def test_steep_affine_law_clean(self):
        violations = validate_assumptions(
            base_params(0.8), CapacityLaw.affine(5.0, 2.0), (0.5, 1.9), 64
        )
        assert violations == []

    def test_constant_law_always_warns(self):
        violations = validate_assumptions(
            base_params(0.8), CapacityLaw.constant(3.0), (0.5, 1.9), 64
        )
        assert [(v.assumption, v.severity) for v in violations] == [("A3", "warning")]

    def test_capacity_below_one_is_hard(self):
        violations = validate_assumptions(
            base_params(0.8), CapacityLaw.constant(0.9), (0.5, 1.9), 64
        )
        severities = {v.severity for v in violations}
        assert "hard" in severities

    def test_grid_guard(self):
        with pytest.raises(ModelDomainError):
            validate_assumptions(base_params(0.8), BASE_LAW, (0.5, 3.0), 1)

    def test_range_guard(self):
        with pytest.raises(ModelDomainError):
            validate_assumptions(base_params(0.8), BASE_LAW, (3.0, 0.5), 64)


class TestTheorem2Margin:
    # values cross-checked against a separate closed-form evaluation
    @pytest.mark.parametrize(
        "b,x,expected",
        [
            (0.2, 0.5, 2.36162550583529),
            (0.2, 1.5, -0.23068641943153767),
            (0.2, 3.0, -0.9114075859951586),
            (0.8, 0.5, 1.9183521122677665),
            (0.8, 3.0, -1.8928924021978326),
        ],
    )
    def test_frozen_profile_values(self, b, x, expected):
        p = base_params(b)
        eq = solve_equilibrium(p, BASE_LAW)
        assert stability_margin(x, p, BASE_LAW, eq) == pytest.approx(expected, rel=1e-10)

    def test_limit_at_equilibrium(self):
        p = base_params(0.2)
        eq = solve_equilibrium(p, BASE_LAW)
        # independent evaluation of the analytic limit via exp/log
        xs, cs = eq.x_star, eq.c_star
        lhs = 1.5 * math.exp(-2.5 * math.log(xs))
        rhs = 1.2 * math.exp(0.2 * (math.log(xs) - math.log(cs))) + 0.2 * math.exp(
            1.2 * (math.log(xs) - math.log(cs))
        )
        assert stability_margin(xs, p, BASE_LAW, eq) == pytest.approx(lhs - rhs, rel=1e-12)

    def test_steep_exponent_negative_at_equilibrium(self):
        p = base_params(0.8)
        eq = solve_equilibrium(p, BASE_LAW)
        assert stability_margin(eq.x_star, p, BASE_LAW, eq) == pytest.approx(
            -0.275028630259744, rel=1e-10
        )

    def test_continuity_across_band_seam(self):
        p = base_params(0.2)
        eq = solve_equilibrium(p, BASE_LAW)
        eps = 1e-6 * eq.x_star
        limit = stability_margin(eq.x_star, p, BASE_LAW, eq)
        for side in (-1.0, 1.0):
            near = stability_margin(eq.x_star + side * 2 * eps, p, BASE_LAW, eq)
            assert near == pytest.approx(limit, rel=1e-3)

    def test_domain_errors(self):
        p = base_params(0.2)
        eq = solve_equilibrium(p, BASE_LAW)
        with pytest.raises(ModelDomainError):
            stability_margin(-1.0, p, BASE_LAW, eq)
        with pytest.raises(CapacityExhaustedError):
            stability_margin(5.0, p, BASE_LAW, eq)


class TestCheckTheorem2:
    def test_steep_exponent_not_certified(self):
        report = check_stability(base_params(0.8), BASE_LAW, (0.5, 3.0), 256)
        assert report.verdict == NOT_CERTIFIED
        assert report.min_margin < 0

    def test_shallow_exponent_certified_near_equilibrium(self):
        report = check_stability(base_params(0.2), BASE_LAW, (0.95, 1.2), 256)
        assert report.verdict == CERTIFIED
        assert report.min_margin > 0
        # the slope warning is soft and does not block certification
        assert any(v.severity == "warning" for v in report.violations)

    def test_hard_violation_blocks_certification(self):
        # delay ordering broken: margin itself contains no delays, so force
        # the verdict through the A1 check
        p = ModelParams(kappa=1.0, a=1.5, b=0.2, tau=2.0, T_delay=3.0)
        report = check_stability(p, BASE_LAW, (0.95, 1.2), 256)
        assert report.verdict == NOT_CERTIFIED
        assert report.min_margin > 0

    def test_grid_guard(self):
        with pytest.raises(ModelDomainError):
            check_stability(base_params(0.2), BASE_LAW, (0.5, 3.0), 8)

    def test_profile_includes_equilibrium_point(self):
        report = check_stability(base_params(0.2), BASE_LAW, (0.95, 1.2), 64)
        assert len(report.profile_x) == 65
        assert report.profile_x[-1] == report.equilibrium.x_star

    def test_verdict_is_delay_independent(self):
        law = BASE_LAW
        reference = None
        for tau, t_delay in ((0.5, 1.0 / 3.0), (3.0, 2.0), (10.0, 20.0 / 3.0), (30.0, 20.0)):
            p = ModelParams(kappa=1.0, a=1.5, b=0.2, tau=tau, T_delay=t_delay)
            report = check_stability(p, law, (0.95, 1.2), 128)
            if reference is None:
                reference = report
            assert report.verdict == reference.verdict
            assert np.array_equal(report.profile_margin, reference.profile_margin)


def reference_lyapunov(traj, t, p, eq, theta_nodes=201):
    """The single-sample quadrature as it was before batching: the oracle
    that lyapunov_values must match bit for bit."""
    b, h = p.b, p.h_gain
    theta = np.linspace(-1.0, 0.0, theta_nodes)
    x_tau = traj.interp_x(t + theta * p.tau)
    c_t = traj.law.value(traj.interp_x(t + theta * p.T_delay))
    term = h * x_tau ** (b + 1.0) * c_t ** -b
    term_star = h * eq.x_star ** (b + 1.0) * eq.c_star ** -b
    integral = float(np.trapezoid(term - term_star, dx=1.0 / (theta_nodes - 1)))
    dev = traj.interp_x(t) - eq.x_star
    sign = 0.0 if dev == 0.0 else math.copysign(1.0, dev)
    return abs(dev) + p.kappa * sign * integral


class TestLyapunovValues:
    @pytest.mark.parametrize("result", ["fig1_result", "fig2_result"])
    def test_run_samples_match_reference(self, result, request):
        res = request.getfixturevalue(result)
        traj, p, eq = res.trajectory, res.config.params, res.report.equilibrium
        ts = [t for t, _ in res.lyapunov]
        expected = [reference_lyapunov(traj, t, p, eq) for t in ts]
        assert [v for _, v in res.lyapunov] == expected
        assert lyapunov_values(traj, ts, p, eq).tolist() == expected

    def test_batch_equals_single_calls_across_blocks(self, fig2_result):
        # off-grid times; 3 * LYAPUNOV_BLOCK + 5 samples straddle three block seams
        traj, p = fig2_result.trajectory, fig2_result.config.params
        eq = fig2_result.report.equilibrium
        n = 3 * analysis.LYAPUNOV_BLOCK + 5
        ts = 3.0 + 0.3771 * np.arange(n)
        batch = lyapunov_values(traj, ts, p, eq, theta_nodes=57)
        single = [lyapunov_value(traj, t, p, eq, theta_nodes=57) for t in ts]
        ref = [reference_lyapunov(traj, t, p, eq, theta_nodes=57) for t in ts]
        assert batch.tolist() == single == ref
        seam = analysis.LYAPUNOV_BLOCK
        assert lyapunov_values(traj, ts[seam - 1 : seam + 1], p, eq, 57).tolist() == ref[
            seam - 1 : seam + 1
        ]

    def test_gain_and_kappa_not_one(self):
        from ratelab import integrate, make_history

        p = base_params(0.5, h_gain=1.3, kappa=0.7)
        eq = solve_equilibrium(p, BASE_LAW)
        traj = integrate(p, BASE_LAW, make_history(0.01, 3.0, 1.0), 40.0, 0.01)
        ts = np.arange(3.0, 40.0, 0.9)
        expected = [reference_lyapunov(traj, t, p, eq) for t in ts]
        assert lyapunov_values(traj, ts, p, eq).tolist() == expected

    def test_horizon_error_names_first_bad_sample(self, fig2_result):
        traj, p = fig2_result.trajectory, fig2_result.config.params
        eq = fig2_result.report.equilibrium
        with pytest.raises(HorizonError, match="t = 2.5"):
            lyapunov_values(traj, [10.0, 2.5, 250.0], p, eq)
        with pytest.raises(HorizonError, match="t = 250.0 beyond"):
            lyapunov_values(traj, [10.0, 250.0, 2.5], p, eq)

    def test_empty_batch(self, fig2_result):
        traj, p = fig2_result.trajectory, fig2_result.config.params
        eq = fig2_result.report.equilibrium
        assert lyapunov_values(traj, [], p, eq).shape == (0,)


class TestLyapunovValue:
    def test_zero_at_equilibrium(self):
        from ratelab import integrate, make_history

        p = base_params(0.2)
        eq = solve_equilibrium(p, BASE_LAW)
        traj = integrate(p, BASE_LAW, make_history(0.01, 3.0, eq.x_star), 20.0, 0.01)
        assert lyapunov_value(traj, 10.0, p, eq) == 0.0

    def test_nonnegative_on_one_sided_windows(self, fig2_result):
        traj = fig2_result.trajectory
        eq = fig2_result.report.equilibrium
        p = fig2_result.config.params
        sign = np.sign(traj.x - eq.x_star)
        checked = 0
        for t in range(3, 201):
            i0 = int(round((t - p.max_delay) / traj.step))
            i1 = int(round(t / traj.step))
            window = sign[i0 : i1 + 1]
            if window[0] != 0 and np.all(window == window[0]):
                assert lyapunov_value(traj, float(t), p, eq) >= -1e-9
                checked += 1
        assert checked > 10

    def test_quadrature_converged(self, fig2_result):
        traj = fig2_result.trajectory
        eq = fig2_result.report.equilibrium
        p = fig2_result.config.params
        coarse = lyapunov_value(traj, 30.0, p, eq, theta_nodes=201)
        fine = lyapunov_value(traj, 30.0, p, eq, theta_nodes=2001)
        assert coarse == pytest.approx(fine, rel=1e-4, abs=1e-9)

    def test_needs_enough_history(self, fig2_result):
        traj = fig2_result.trajectory
        eq = fig2_result.report.equilibrium
        p = fig2_result.config.params
        with pytest.raises(HorizonError):
            lyapunov_value(traj, 2.0, p, eq)
        with pytest.raises(HorizonError):
            lyapunov_value(traj, 201.0, p, eq)


class TestClassify:
    def test_constant_at_equilibrium(self):
        p = base_params(0.2)
        eq = solve_equilibrium(p, BASE_LAW)
        t = np.arange(0.0, 40.0 + 1e-9, 0.01)
        traj = synthetic_trajectory(t, np.full_like(t, eq.x_star), p)
        cls = classify(traj, eq)
        assert cls.kind == CONVERGED
        assert cls.final_error == 0.0
        assert cls.settling_time == 0.0

    def test_sustained_oscillation(self):
        p = base_params(0.8)
        eq = solve_equilibrium(p, BASE_LAW)
        t = np.arange(0.0, 120.0 + 1e-9, 0.01)
        x = eq.x_star + 0.3 * np.sin(0.8 * t)
        cls = classify(synthetic_trajectory(t, x, p), eq)
        assert cls.kind == OSCILLATING
        assert cls.tail_peak_to_peak > 0.1

    def test_decaying_oscillation_is_undetermined(self):
        p = base_params(0.8)
        eq = solve_equilibrium(p, BASE_LAW)
        t = np.arange(0.0, 120.0 + 1e-9, 0.01)
        x = eq.x_star + 0.5 * np.exp(-0.02 * t) * np.sin(0.8 * t)
        cls = classify(synthetic_trajectory(t, x, p), eq)
        assert cls.kind == UNDETERMINED

    def test_saturated_at_ceiling(self):
        p = base_params(0.8, x_max=2.0)
        eq = solve_equilibrium(p, BASE_LAW)
        t = np.arange(0.0, 60.0 + 1e-9, 0.01)
        cls = classify(synthetic_trajectory(t, np.full_like(t, 2.0), p), eq)
        assert cls.kind == SATURATED

    def test_short_horizon_guard(self, fig2_result):
        from ratelab import integrate, make_history

        p = base_params(0.2)
        eq = fig2_result.report.equilibrium
        traj = integrate(p, BASE_LAW, make_history(0.01, 3.0, 1.0), 5.0, 0.01)
        with pytest.raises(HorizonError):
            classify(traj, eq)

    def test_real_converged_run(self, fig2_result):
        cls = fig2_result.classification
        assert cls.kind == CONVERGED
        assert cls.settling_time is not None

    @settings(deadline=None, max_examples=25)
    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    def test_scale_consistency(self, scale):
        # scaling deviation and both tolerances together preserves the verdict
        p = base_params(0.8)
        eq = solve_equilibrium(p, BASE_LAW)
        t = np.arange(0.0, 60.0 + 1e-9, 0.02)
        dev = 0.05 * np.sin(0.9 * t)
        base = classify(
            synthetic_trajectory(t, eq.x_star + dev, p), eq, tol_conv=1e-2, tol_osc=0.03
        )
        scaled = classify(
            synthetic_trajectory(t, eq.x_star + scale * dev, p),
            eq,
            tol_conv=1e-2 * scale,
            tol_osc=0.03 * scale,
        )
        assert scaled.kind == base.kind
