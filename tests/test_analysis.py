import ast
import inspect
import math
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from ratelab import (
    CERTIFIED,
    CONVERGED,
    NOT_CERTIFIED,
    OSCILLATING,
    SATURATED,
    UNDETERMINED,
    CapacityLaw,
    ConfigError,
    ModelDomainError,
    ModelParams,
    check_stability,
    classify,
    integrate,
    lyapunov_values,
    solve_equilibrium,
)
from ratelab import analysis, dde
from ratelab.analysis import margin_kernel
from ratelab.config import apply_param, load_scenario
from ratelab.model import Equilibrium
from ratelab.scenario import _execute
from conftest import BASE_LAW, base_params, synthetic_trajectory
from oracle import classify as reference_classify
from oracle import rate_map, two_cycle
from oracle import solve_equilibrium as reference_equilibrium
from oracle import stability_margin as reference_margin
from oracle import validate_assumptions as reference_assumptions


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
                CapacityLaw(1.0),
            )
            assert eq.x_star == pytest.approx(1.0, abs=1e-12)

    def test_first_order_optimality(self):
        for b in (0.2, 0.5, 0.8):
            p = base_params(b)
            eq = solve_equilibrium(p, BASE_LAW)
            # U'(x*) = x*^-(a+1) for U(x) = -1/(a x^a); p(x*, c*) = h (x*/c*)^b
            marginal_utility = eq.x_star ** -(p.a + 1.0)
            price = p.h_gain * (eq.x_star / eq.c_star) ** p.b
            assert marginal_utility == pytest.approx(price, rel=1e-9)

    def test_small_b_power_overflow_maps_to_minus_inf(self):
        # x_max**((a+b+1)/b) = 1e3**251 overflows a float; the root is still found
        p = base_params(0.01)
        eq = solve_equilibrium(p, BASE_LAW)
        assert eq.x_star == pytest.approx(1.00553282, rel=1e-8)
        assert eq.residual < 1e-12

    def test_no_bracket(self):
        p = base_params(0.8, x_min=1.0)
        with pytest.raises(ConfigError, match="sign change"):
            solve_equilibrium(p, CapacityLaw(0.5))

    def test_tiny_ends_of_one_sign_are_no_bracket(self):
        # f(x_min) = f(x_max) = 1e-200, whose product underflows to 0.0: no
        # sign change, though a product test would bisect it to x_max
        p = ModelParams(kappa=1.0, a=1.0, b=1.0, tau=1.0, T_delay=1.0, h_gain=1.0,
                        x_min=1e-120, x_max=2e-120)
        message = (r"^no sign change of the equilibrium residual on \[1e-120, 2e-120\] "
                   r"\(f\(1e-120\) = 1e-200, f\(2e-120\) = 1e-200\)$")
        with pytest.raises(ConfigError, match=message):
            solve_equilibrium(p, CapacityLaw(1e-200))

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
    """The assumption registry: A1 at construction, A3 in check_stability."""

    @staticmethod
    def violations(p, law, x_range, grid_n=64):
        return check_stability(p, law, x_range, grid_n).violations

    def test_benchmark_law_single_slope_warning(self):
        violations = self.violations(base_params(0.8), BASE_LAW, (0.5, 3.0))
        assert len(violations) == 1
        v = violations[0]
        assert (v.assumption, v.severity) == ("A3", "warning")
        assert "-1" in v.description

    def test_delay_ordering_is_hard(self):
        with pytest.raises(ModelDomainError, match="A1"):
            ModelParams(kappa=1.0, a=1.5, b=0.2, tau=2.0, T_delay=3.0)
        with pytest.raises(ModelDomainError, match="A1"):
            base_params(0.2)._replace(T_delay=3.0 + 1e-12)

    def test_steep_affine_law_clean(self):
        violations = self.violations(base_params(0.8), CapacityLaw(5.0, 2.0), (0.5, 1.9))
        assert violations == ()

    def test_constant_law_always_warns(self):
        violations = self.violations(base_params(0.8), CapacityLaw(3.0), (0.5, 1.9))
        assert [(v.assumption, v.severity) for v in violations] == [("A3", "warning")]
        # the slope warning, for a slope of 0: +0.0 prints as 0
        assert violations[0].description == "capacity slope must satisfy g'(x) < -1, got g'(x) = 0"

    def test_capacity_below_one_is_hard(self):
        violations = self.violations(base_params(0.8), CapacityLaw(0.9), (0.5, 1.9))
        assert [(v.assumption, v.severity) for v in violations] == [
            ("A3", "hard"), ("A3", "warning")
        ]
        assert violations[0].description == "capacity must exceed 1 on the range: g(0.5) = 0.9"

    def test_grid_guard(self):
        with pytest.raises(ModelDomainError, match="grid_n"):
            self.violations(base_params(0.8), BASE_LAW, (0.5, 3.0), 1)

    def test_range_guard(self):
        with pytest.raises(ModelDomainError, match="x_lo < x_hi"):
            self.violations(base_params(0.8), BASE_LAW, (3.0, 0.5))
        with pytest.raises(ModelDomainError, match=r"range \[0.0001, 3.0\] must lie within "
                                                   r"the rate bounds \[0.001, 1000.0\]"):
            self.violations(base_params(0.8), BASE_LAW, (1e-4, 3.0))


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
        assert margin_kernel(p, BASE_LAW, eq, [x])[0] == pytest.approx(expected, rel=1e-10)

    def test_limit_at_equilibrium(self):
        p = base_params(0.2)
        eq = solve_equilibrium(p, BASE_LAW)
        # independent evaluation of the analytic limit via exp/log
        xs, cs = eq.x_star, eq.c_star
        lhs = 1.5 * math.exp(-2.5 * math.log(xs))
        rhs = 1.2 * math.exp(0.2 * (math.log(xs) - math.log(cs))) + 0.2 * math.exp(
            1.2 * (math.log(xs) - math.log(cs))
        )
        assert margin_kernel(p, BASE_LAW, eq, [xs])[0] == pytest.approx(lhs - rhs, rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("b", [0.2, 0.3807, 0.8, 1.2251, 2.0])
    def test_equals_delay_independent_test_at_equilibrium(self, b, kappa):
        # the linearisation about x* is y' = -A y - B y(t-tau) - C y(t-T), and
        # kappa*margin(x*) = A - B - C: a certificate covering x* is the
        # classical delay-independent test A > |B| + |C|
        p = base_params(b, kappa=kappa)
        eq = solve_equilibrium(p, BASE_LAW)
        xs, cs, h, m = eq.x_star, eq.c_star, p.h_gain, BASE_LAW.slope
        big_a = kappa * p.a * xs ** (-p.a - 1.0)
        big_b = kappa * h * (b + 1.0) * xs ** b * cs ** -b
        big_c = kappa * h * b * m * xs ** (b + 1.0) * cs ** (-b - 1.0)
        margin = margin_kernel(p, BASE_LAW, eq, [xs])[0]
        scale = max(abs(big_a), abs(big_b), abs(big_c))
        assert abs(kappa * margin - (big_a - big_b - big_c)) <= 1e-14 * scale

    def test_steep_exponent_negative_at_equilibrium(self):
        p = base_params(0.8)
        eq = solve_equilibrium(p, BASE_LAW)
        assert margin_kernel(p, BASE_LAW, eq, [eq.x_star])[0] == pytest.approx(
            -0.275028630259744, rel=1e-10
        )

    def test_continuity_across_band_seam(self):
        p = base_params(0.2)
        eq = solve_equilibrium(p, BASE_LAW)
        eps = 1e-6 * eq.x_star
        limit = margin_kernel(p, BASE_LAW, eq, [eq.x_star])[0]
        for side in (-1.0, 1.0):
            near = margin_kernel(p, BASE_LAW, eq, [eq.x_star + side * 2 * eps])[0]
            assert near == pytest.approx(limit, rel=1e-3)

    @pytest.mark.parametrize("d", [1.0, -1.0, 1.5, -1.5, 0.5])
    def test_band_edges_match_the_oracle(self, d):
        # the kernel is handed x_star = 1e6, where the band 1e-6 * x_star is
        # exactly 1.0 and x_star +- 1.0 is exact: a rate on the band's edge
        # takes the quotient, as one 1.5e-6 * x_star away does, and only a
        # rate inside the band takes the limit; in the loop and the comprehension
        p = ModelParams(kappa=1.0, a=1.0, b=1.0, tau=1.0, T_delay=1.0, x_max=1e7)
        law = CapacityLaw(4e6, 1.0)
        eq = Equilibrium(1e6, law.value(1e6), 0.0)
        x = 1e6 + d
        expected = reference_margin(x, p, law, eq)
        assert (expected == margin_kernel(p, law, eq, [1e6])[0]) is (abs(d) < 1.0)
        assert margin_kernel(p, law, eq, [x]) == [expected]
        assert margin_kernel(p, law, eq, [], terms=((x, law.value(x), x ** -p.a),)) == [expected]

    def test_domain_errors(self):
        p = base_params(0.2)
        eq = solve_equilibrium(p, BASE_LAW)
        with pytest.raises(ModelDomainError):
            margin_kernel(p, BASE_LAW, eq, [-1.0])[0]
        with pytest.raises(ModelDomainError, match="capacity law returned c = 0.0 <= 0 at x = 5"):
            margin_kernel(p, BASE_LAW, eq, [5.0])[0]
        # 0.5 ** -1e12 is beyond the float range
        p_steep = base_params(0.2, a=1e12)
        eq_steep = solve_equilibrium(p_steep, BASE_LAW)
        with pytest.raises(ConfigError, match="float range"):
            margin_kernel(p_steep, BASE_LAW, eq_steep, [0.5])[0]


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
        # g = 0.9 <= 1 breaks A3 while the margin stays positive: the hard
        # violation alone decides the verdict
        report = check_stability(base_params(0.2), CapacityLaw(0.9), (0.95, 1.05), 256)
        assert [v.severity for v in report.violations] == ["hard", "warning"]
        assert report.verdict == NOT_CERTIFIED
        assert report.min_margin > 0

    def test_a_zero_minimum_margin_is_not_certified(self):
        # a = 40 at x* = 8.98e13: every margin underflows to exactly 0.0, and
        # the constant law's A3 warning is the only finding; a margin that is
        # not positive certifies nothing
        p = ModelParams(kappa=1.0, a=40.0, b=2.0, tau=1.0, T_delay=1.0, h_gain=1.0,
                        x_min=1e13, x_max=1e15)
        law = CapacityLaw(1e300)
        xs = solve_equilibrium(p, law).x_star
        assert xs == pytest.approx(8.984e13, rel=1e-4)
        report = check_stability(p, law, (xs / 2, 2 * xs), 256)
        assert [v.severity for v in report.violations] == ["warning"]
        assert report.min_margin == 0.0
        assert report.verdict == NOT_CERTIFIED

    def test_grid_guard(self):
        with pytest.raises(ModelDomainError):
            check_stability(base_params(0.2), BASE_LAW, (0.5, 3.0), 8)

    @pytest.mark.parametrize("grid_n", [64.0, 64.5, "64", np.int64(64)], ids=repr)
    def test_grid_n_is_an_integer(self, grid_n):
        # any integer type is a grid size (operator.index); anything else is
        # refused by name, as ModelDomainError rather than range()'s TypeError
        args = (base_params(0.2), BASE_LAW, (0.5, 3.0))
        if isinstance(grid_n, np.integer):
            assert repr(check_stability(*args, grid_n)) == repr(check_stability(*args, 64))
        else:
            with pytest.raises(ModelDomainError, match=r"^grid_n must be an integer, got "):
                check_stability(*args, grid_n)

    @pytest.mark.parametrize("p, law, x_range, grid_n, regular", [
        (base_params(0.2), BASE_LAW, (0.95, 1.2), 256, True),  # certified around fig2's x*
        (base_params(0.2, x_min=1e-300), BASE_LAW, (1e-300, 2.0), 16, False),  # x**-a overflows
        (base_params(0.2), BASE_LAW, (0.5, 6.0), 64, False),  # g(x) <= 0 from x = 5
    ])
    def test_range_side_records_regular(self, p, law, x_range, grid_n, regular):
        # a regular side keeps its terms for the kernel's comprehension; the
        # rest keep none, and their nodes take its loop
        assert bool(analysis._range_side(*x_range, grid_n, p.a, law)[1]) is regular

    def test_profile_includes_equilibrium_point(self):
        # b = 0.8: the margin falls with x, and x_star ~ 1.367 lies above the
        # range, so only the appended limit point can hold the minimum
        p = base_params(0.8)
        report = check_stability(p, BASE_LAW, (0.95, 1.2), 64)
        eq = report.equilibrium
        assert report.min_margin_x == eq.x_star
        assert report.min_margin == margin_kernel(p, BASE_LAW, eq, [eq.x_star])[0]

    def test_verdict_is_delay_independent(self):
        law = BASE_LAW
        reference = None
        for tau, t_delay in ((0.5, 1.0 / 3.0), (3.0, 2.0), (10.0, 20.0 / 3.0), (30.0, 20.0)):
            p = ModelParams(kappa=1.0, a=1.5, b=0.2, tau=tau, T_delay=t_delay)
            report = check_stability(p, law, (0.95, 1.2), 128)
            if reference is None:
                reference = report
            assert report.verdict == reference.verdict
            assert (report.min_margin.hex(), report.min_margin_x.hex()) == (
                reference.min_margin.hex(), reference.min_margin_x.hex())


class TestReadmeNumbers:
    """The criterion 2 and 3 figures that README states, at the digits it prints."""

    def test_criterion_3_margins(self, fig2_result):
        envelope = fig2_result.report.x_range
        stable = check_stability(base_params(0.2), BASE_LAW, envelope, 256)
        assert stable.verdict == CERTIFIED
        assert f"{stable.min_margin:.4f}" == "0.0282"
        steep = check_stability(base_params(0.8), BASE_LAW, envelope, 256)
        assert steep.min_margin_x == steep.equilibrium.x_star
        assert (f"{steep.min_margin:.3f}", f"{steep.min_margin_x:.4f}") == ("-0.275", "1.3672")
        steep_wide = check_stability(base_params(0.8), BASE_LAW, (0.5, 3.0), 256)
        assert f"{steep_wide.min_margin:.3f}" == "-1.893"
        wide = check_stability(base_params(0.2), BASE_LAW, (0.5, 3.0), 256)
        assert (f"{wide.min_margin:.3f}", wide.min_margin_x) == ("-0.911", 3.0)

    def test_criterion_3_certified_interval(self):
        # README: b = 0.2 is certified on [0.01, 1.2539)
        inside = check_stability(base_params(0.2), BASE_LAW, (0.01, 1.2539), 256)
        beyond = check_stability(base_params(0.2), BASE_LAW, (0.01, 1.2540), 256)
        assert (inside.verdict, beyond.verdict) == (CERTIFIED, NOT_CERTIFIED)

    def test_criterion_2_tail_amplitudes(self, fig1_path, fig1_result):
        assert f"{fig1_result.classification.tail_peak_to_peak:.1e}" == "2.5e-03"
        res = _execute(apply_param(load_scenario(fig1_path), "b", 2.0))
        assert res.classification.kind == OSCILLATING
        assert f"{res.classification.tail_peak_to_peak:.3f}" == "1.378"
        x = res.trajectory.x
        assert (f"{x.min():.3f}", f"{x.max():.3f}") == ("0.865", "2.285")


@st.composite
def margin_inputs(draw):
    """A model (a from 10**[-2, 3], either law), a range inside its rate
    bounds, a grid size, and probe points as multiples of x_star: some land
    in the band around it, past the capacity root or outside the bounds."""
    x_min = 10.0 ** draw(st.floats(-4.0, -1.0))
    x_max = 10.0 ** draw(st.floats(0.0, 3.0))
    params = ModelParams(
        kappa=1.0,
        a=10.0 ** draw(st.floats(-2.0, 3.0)),
        b=10.0 ** draw(st.floats(-2.0, 1.0)),
        tau=3.0,
        T_delay=2.0,
        h_gain=10.0 ** draw(st.floats(-2.0, 2.0)),
        x_min=x_min,
        x_max=x_max,
    )
    if draw(st.booleans()):
        law = CapacityLaw(10.0 ** draw(st.floats(0.0, 2.0)),
                          10.0 ** draw(st.floats(-2.0, 1.0)))
    else:
        law = CapacityLaw(10.0 ** draw(st.floats(-1.0, 2.0)))
    lo = x_min + draw(st.floats(0.0, 0.5)) * (x_max - x_min)
    hi = x_min + draw(st.floats(0.5, 1.0)) * (x_max - x_min)
    grid_n = draw(st.sampled_from([16, 17, 64, 257]))
    factors = draw(st.lists(
        st.one_of(st.floats(0.01, 100.0), st.floats(1.0 - 2e-6, 1.0 + 2e-6)), max_size=6
    ))
    return params, law, (lo, hi), grid_n, factors


def _outcome(f):
    """Every value as float.hex, or the exception's type and message."""
    try:
        return [float(v).hex() for v in f()]
    except Exception as exc:  # noqa: BLE001 - any exception must match the oracle's
        return type(exc), str(exc)


FIG2_X_STAR = 1.1059448952257895  # b = 0.2 on the fig2 base
HUGE_A = ModelParams(kappa=1.0, a=1e12, b=2.0, tau=3.0, T_delay=2.0, h_gain=1e308,
                     x_min=0.5, x_max=2.0)


@settings(max_examples=40, deadline=None)
@given(inputs=margin_inputs())
# no draw reaches these branches: pinned by hand
@example(inputs=(base_params(0.2), BASE_LAW, (0.5, 3.0), 16, [0.0, -1.0]))  # x <= 0
@example(inputs=(base_params(0.2), BASE_LAW, (0.5, 3.0), 16, [math.nan]))  # NaN
@example(inputs=(  # capacity <= 0: g = 5 - x is 0 at x = 5, below it past there
    base_params(0.2), BASE_LAW, (0.5, 6.0), 64, [5.0 / FIG2_X_STAR, 5.0]
))
@example(inputs=(  # x**-a fits at x = 2 but x_star**-a overflows, and so does the limit
    HUGE_A, CapacityLaw(0.5), (0.6, 2.0), 16, [2.0, 1.0]
))
@example(inputs=(  # a regular side whose band limit and x_star**-a overflow: the
    # comprehension fails before its first node, so the loop names x = 1.0
    HUGE_A, CapacityLaw(0.5), (1.0, 2.0), 16, [2.0, 1.0]
))
@example(inputs=(  # x**-a overflows at x = 1e-300, the equilibrium terms fit
    base_params(0.2, x_min=1e-300), BASE_LAW, (1e-300, 2.0), 16, [1e-300 / FIG2_X_STAR, 1.5]
))
@example(inputs=(  # node 8 of 17 is x_star to rounding: a grid point inside the band
    base_params(0.2), BASE_LAW, (FIG2_X_STAR - 0.5, FIG2_X_STAR + 0.5), 17, [1.0 + 1e-7]
))
@example(inputs=(  # the limit at x_star is NaN and the grid's margins are finite
    ModelParams(kappa=1.0, a=4.024316117873561, b=0.09252848999507815, tau=3.0,
                T_delay=2.0, h_gain=0.005415772853813795, x_min=1.045971826213325e-148,
                x_max=3.4102365131286726e+233),
    CapacityLaw(1.2370128581013361e-274),
    (1.1993496406187543e+233, 3.381569582978877e+233), 16, [],
))
@example(inputs=(  # a regular range side; x**(b+1) overflows from node 8 of 16 on, so the
    # comprehension's OverflowError hands the nodes to the loop, which names node 8
    base_params(10.0, x_min=1.0, x_max=2e28), CapacityLaw(5.0), (1.0, 2e28), 16, [],
))
@example(inputs=(  # both quotients overflow near x_star: +inf at nodes 0-7, NaN at 8-10
    # (the first NaN is interior), -inf at 11-15, +inf at the limit point
    ModelParams(kappa=1.0, a=44.1, b=1.26, tau=3.0, T_delay=2.0, h_gain=3.05e307,
                x_min=1.19e-7, x_max=2.43e-7),
    CapacityLaw(7.78e-8), (1.19e-7, 2.43e-7), 16, [],
))
@example(inputs=(  # +inf and -inf and no NaN: the sum is NaN, the minimum is -inf at node 10
    ModelParams(kappa=1.0, a=44.0, b=1.25, tau=3.0, T_delay=2.0, h_gain=3e307,
                x_min=1.2e-7, x_max=2.4e-7),
    CapacityLaw(7.8e-8), (1.2e-7, 2.4e-7), 16, [],
))
def test_margin_kernel_matches_point_by_point_oracle(inputs):
    # one kernel per check binds the equilibrium terms once; every value and
    # error must read as if each point were computed afresh, and the minimum
    # must follow numpy.argmin: the first NaN, else the first smallest margin.
    # Each check runs twice: the first builds the range side, the second
    # reuses it
    p, law, x_range, grid_n, factors = inputs
    analysis._range_side.cache_clear()
    solved = _outcome(lambda: [solve_equilibrium(p, law).x_star])
    if isinstance(solved, tuple):  # no equilibrium: the check fails the same way
        for _ in range(2):
            assert _outcome(lambda: [check_stability(p, law, x_range, grid_n).min_margin]) \
                == solved
        return
    eq = solve_equilibrium(p, law)
    grid = np.append(np.linspace(x_range[0], x_range[1], grid_n), eq.x_star)

    def reference_profile():
        return [reference_margin(float(x), p, law, eq) for x in grid]

    # the check's scan: one kernel call over its grid plus x_star
    check_grid = analysis.uniform_grid(x_range[0], x_range[1], grid_n) + [eq.x_star]
    assert _outcome(lambda: margin_kernel(p, law, eq, check_grid)) == _outcome(reference_profile)

    def reference_check():
        reference_assumptions(p, law, x_range, grid_n)
        return reference_profile()

    expected = _outcome(reference_check)
    for _ in range(2):
        if isinstance(expected, tuple):
            assert _outcome(lambda: [check_stability(p, law, x_range, grid_n).min_margin]) == \
                expected
            continue
        report = check_stability(p, law, x_range, grid_n)
        margins = np.array(reference_profile())
        i = int(np.argmin(margins))
        hard = any(v.severity == "hard" for v in reference_assumptions(p, law, x_range, grid_n))
        assert report.min_margin.hex() == float(margins[i]).hex()
        assert report.min_margin_x.hex() == float(grid[i]).hex()
        assert report.verdict == (CERTIFIED if margins[i] > 0 and not hard else NOT_CERTIFIED)
    points = [f * eq.x_star for f in factors]
    values, first_error = [], None
    for x in points:
        single = _outcome(lambda: [reference_margin(x, p, law, eq)])
        assert _outcome(lambda: [margin_kernel(p, law, eq, [x])[0]]) == single
        if first_error is None:
            if isinstance(single, tuple):
                first_error = single
            else:
                values += single
    # one batch reads as the points one by one: their values up to the first
    # error, which the whole batch raises
    assert _outcome(lambda: margin_kernel(p, law, eq, points[:len(values)])) == values
    if first_error is not None:
        assert _outcome(lambda: margin_kernel(p, law, eq, points)) == first_error


@st.composite
def contraction_inputs(draw):
    """A model whose root x* = 10**[-1, 1] keeps g(x*) >= 0.05 * c0, and
    rates x* * 4**[-1, 1] stopped below the capacity root."""
    x_star = 10.0 ** draw(st.floats(-1.0, 1.0))
    a, b = 10.0 ** draw(st.floats(-1.0, 0.5)), 10.0 ** draw(st.floats(-1.0, 0.5))
    c0 = 10.0 ** draw(st.floats(0.0, 1.0))
    law = CapacityLaw(c0, draw(st.floats(0.0, 0.95)) * c0 / x_star)
    h = (law.value(x_star) / x_star ** ((a + b + 1.0) / b)) ** b  # aimed at x*
    p = base_params(b, kappa=10.0 ** draw(st.floats(-1.0, 1.0)), a=a, h_gain=h)
    rates = draw(st.lists(st.floats(-1.0, 1.0).map(lambda k: x_star * 4.0 ** k)
                          .filter(lambda x: law.value(x) > 0.0), min_size=1, max_size=50))
    return p, law, rates


@settings(max_examples=100, deadline=None)
@given(inputs=contraction_inputs())
def test_margin_is_a_contraction_test(inputs):
    # margin = D - P, the damping secant of phi(x) = x**-a less the feedback
    # secant of F(x) = h * x**(b+1) * g(x)**-b; both are positive off x*, so
    # the margin is positive exactly when rho = P/D < 1, and at x* it is
    # (A - B - C)/kappa with A, B and C the linearisation's coefficients
    p, law, rates = inputs
    a, b, h, kappa = p.a, p.b, p.h_gain, p.kappa
    eq = solve_equilibrium(p, law)
    xs, cs = eq.x_star, eq.c_star

    def feedback(x):
        return h * x ** (b + 1.0) * law.value(x) ** -b

    for x in rates:
        if abs(x - xs) <= analysis.EPS_BAND_REL * xs:  # the 0/0 band: the limit instead
            continue
        rho = ((feedback(x) - feedback(xs)) / (x - xs)) / ((xs ** -a - x ** -a) / (x - xs))
        if abs(rho - 1.0) > 1e-9:
            assert (margin_kernel(p, law, eq, [x])[0] > 0.0) == (rho < 1.0), (x, rho)
    A = kappa * a * xs ** (-a - 1.0)
    B = kappa * h * (b + 1.0) * xs ** b * cs ** -b
    C = kappa * h * b * law.slope * xs ** (b + 1.0) * cs ** (-b - 1.0)
    limit = kappa * margin_kernel(p, law, eq, [xs])[0]
    assert abs(limit - (A - B - C)) <= 1e-12 * max(A, B + C)


def _check_outcome(args):
    """The whole report as its repr (NaN included), or the exception's type and message."""
    try:
        return repr(check_stability(*args))
    except Exception as exc:  # noqa: BLE001 - any exception must match the fresh check's
        return type(exc), str(exc)


@st.composite
def range_side_variants(draw):
    """A check and, for each part of the range side's key, checks that
    differ from it in that part alone: a, the law's c0, its slope (0 and
    positive), grid_n, x_lo and x_hi."""
    p, law, (lo, hi), grid_n, _ = draw(margin_inputs())
    scale = st.floats(0.5, 2.0)
    inset = draw(st.floats(0.01, 0.4)) * (hi - lo)
    return (p, law, (lo, hi), grid_n), [
        (p._replace(a=p.a * draw(scale)), law, (lo, hi), grid_n),
        (p, law._replace(c0=law.c0 * draw(scale)), (lo, hi), grid_n),
        (p, law._replace(slope=0.0), (lo, hi), grid_n),
        (p, law._replace(slope=10.0 ** draw(st.floats(-2.0, 1.0))), (lo, hi), grid_n),
        (p, law, (lo, hi), grid_n + 1),
        (p, law, (lo + inset, hi), grid_n),
        (p, law, (lo, hi - inset), grid_n),
    ]


def test_range_side_is_shared_by_equal_int_and_float_keys():
    # an int range, a and law reuse the float key's range side, which they build bit for bit
    ints = (base_params(0.2, a=2), CapacityLaw(5, 1), (1, 2), 64)
    analysis._range_side.cache_clear()
    fresh = _check_outcome(ints)
    analysis._range_side.cache_clear()
    _check_outcome((base_params(0.2, a=2.0), CapacityLaw(5.0, 1.0), (1.0, 2.0), 64))
    assert _check_outcome(ints) == fresh
    assert analysis._range_side.cache_info().hits == 1


def test_a_large_check_keeps_no_range_side():
    # a side of KEEP_GRID_N nodes is kept for the next check; one of 10**5
    # nodes, about 15 MB, is built for its own check and dropped after it
    args = (base_params(0.2), BASE_LAW, (0.5, 2.0))
    analysis._range_side.cache_clear()
    check_stability(*args, analysis.KEEP_GRID_N)
    assert analysis._range_side.cache_info().currsize == 1
    analysis._range_side.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        large = check_stability(*args, 10**5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert analysis._range_side.cache_info().currsize == 0
    assert held < 10**6
    assert check_stability(*args, 10**5) == large


@settings(max_examples=30, deadline=None)
@given(checks=range_side_variants())
@example(checks=(  # A3 fails from x = 1.5: each change moves the minimum or the node A3 names
    (base_params(0.8), CapacityLaw(2.5, 1.0), (0.5, 2.0), 64), [
        (base_params(0.8, a=2.5), CapacityLaw(2.5, 1.0), (0.5, 2.0), 64),
        (base_params(0.8), CapacityLaw(3.0, 1.0), (0.5, 2.0), 64),
        (base_params(0.8), CapacityLaw(2.5), (0.5, 2.0), 64),
        (base_params(0.8), CapacityLaw(2.5, 1.2), (0.5, 2.0), 64),
        (base_params(0.8), CapacityLaw(2.5, 1.0), (0.5, 2.0), 65),
        (base_params(0.8), CapacityLaw(2.5, 1.0), (0.6, 2.0), 64),
        (base_params(0.8), CapacityLaw(2.5, 1.0), (0.5, 1.9), 64),
    ],
))
def test_range_side_key_separates_what_it_must(checks):
    # a check reuses the last range side only at the same range, grid_n, a
    # and law: checks in alternation, each one part of that key away from
    # the last, must read as checks on an empty cache
    base, variants = checks
    analysis._range_side.cache_clear()
    _check_outcome(base)
    for args in [c for v in variants for c in (v, base)]:
        reused = _check_outcome(args)
        analysis._range_side.cache_clear()
        assert reused == _check_outcome(args)


@st.composite
def equilibrium_inputs(draw):
    """A model (b from 1e-3 to 30), either law, and rate bounds from two
    adjacent floats up to [1e-6, 1e6].  h is drawn over 24 decades, or aimed
    so that the root is a drawn rate inside the bounds: free draws often
    bracket no root, and some overflow x**exponent at x_max."""
    x_min = 10.0 ** draw(st.floats(-6.0, 5.9))
    if draw(st.booleans()):
        x_max = math.nextafter(x_min, math.inf)
    else:
        x_max = max(10.0 ** draw(st.floats(math.log10(x_min), 6.0)),
                    math.nextafter(x_min, math.inf))
    a = 10.0 ** draw(st.floats(-2.0, 1.0))
    b = 10.0 ** draw(st.floats(-3.0, math.log10(30.0)))
    if draw(st.booleans()):
        law = CapacityLaw(10.0 ** draw(st.floats(-1.0, 3.0)),
                          10.0 ** draw(st.floats(-3.0, 2.0)))
    else:
        law = CapacityLaw(10.0 ** draw(st.floats(-2.0, 3.0)))
    h = 10.0 ** draw(st.floats(-12.0, 12.0))
    if draw(st.booleans()):  # h with the residual's root at rate r
        r = x_min + draw(st.floats(0.0, 1.0)) * (x_max - x_min)
        try:
            aimed = (max(law.value(r), 0.0) / r ** ((a + b + 1.0) / b)) ** b
        except (OverflowError, ZeroDivisionError):
            aimed = 0.0
        if 0.0 < aimed < math.inf:
            h = aimed
    params = ModelParams(kappa=1.0, a=a, b=b, tau=3.0, T_delay=2.0, h_gain=h,
                         x_min=x_min, x_max=x_max)
    return params, law


@settings(max_examples=50, deadline=None)
@given(inputs=equilibrium_inputs())
# one example per exit of the solver, pinned by hand
@example(inputs=(base_params(0.01), BASE_LAW))  # x_max**(1 + 2.5/0.01) overflows
@example(inputs=(  # one ulp of bracket: the first midpoint is an endpoint
    base_params(0.2, x_min=1.1059448952257895, x_max=math.nextafter(1.1059448952257895, 2.0)),
    BASE_LAW,
))
@example(inputs=(base_params(0.8, x_min=1.0), CapacityLaw(0.5)))  # no sign change
@example(inputs=(  # ends of one sign whose product underflows to 0.0
    ModelParams(kappa=1.0, a=1.0, b=1.0, tau=1.0, T_delay=1.0, h_gain=1.0,
                x_min=1e-120, x_max=2e-120),
    CapacityLaw(1e-200),
))
@example(inputs=(  # the root rounds onto g's root, x_star = 1
    ModelParams(kappa=1.0, a=1.0, b=0.1, tau=3.0, T_delay=2.0, h_gain=0.01,
                x_min=0.1, x_max=10.0),
    CapacityLaw(1.0, 1.0),
))
@example(inputs=(base_params(0.01, h_gain=1e4), BASE_LAW))  # h**(1/b) overflows
# g == 1: the second midpoint, x = 1, is the root exactly and collapses the bracket
@example(inputs=(base_params(0.2, x_min=0.5, x_max=2.5), CapacityLaw(1.0)))
@example(inputs=(  # x_star near 1e4: the stopping width scales with the midpoint
    base_params(0.2, h_gain=1e-10, x_max=1e6), CapacityLaw(12345.678)
))
def test_solve_equilibrium_matches_bisection_oracle(inputs):
    # the loop evaluates the residual inline and tests the sign of f(x_min)
    # once: every root, residual and error must read as the bisection that
    # called f at each step
    p, law = inputs
    expected = _outcome(lambda: reference_equilibrium(p, law))  # x_star, c_star, residual
    event(expected[0].__name__ if isinstance(expected, tuple) else "root")
    assert _outcome(lambda: solve_equilibrium(p, law)) == expected


@st.composite
def scaled_roots(draw):
    """A root x* = 10**k, k in [-50, 3], and rate bounds x*/10**[0.01, 200]
    and x* * 10**[0.01, 200]: brackets up to 1e215 times the stop width."""
    x_star = 10.0 ** draw(st.floats(-50.0, 3.0))
    return (x_star, x_star / 10.0 ** draw(st.floats(0.01, 200.0)),
            x_star * 10.0 ** draw(st.floats(0.01, 200.0)))


@settings(max_examples=100, deadline=None)
@given(inputs=scaled_roots())
@example(inputs=(1e-29, 1e-30, 2e-28))  # an absolute stop rule ends at the first midpoint
# a 200-step cap ends these 1e139 times the root off
@example(inputs=(1.5766647650673936e-06, 6.428708692681696e-47, 1.3004556771032432e+194))
@example(inputs=(1.4181223537117532e-50, 3.652777694360225e-197, 6.636152946073652e+149))
def test_solve_equilibrium_is_relative_at_every_scale(inputs):
    # a = 1.5, b = 0.5, a constant law c0 = 5 and h aimed at x*: the
    # residual changes sign within 1e-12 of the root, whatever its scale
    x_star, x_min, x_max = inputs
    a, b, c0 = 1.5, 0.5, 5.0
    exponent = (a + b + 1.0) / b
    h = (c0 / x_star ** exponent) ** b
    p = ModelParams(kappa=1.0, a=a, b=b, tau=3.0, T_delay=2.0, h_gain=h,
                    x_min=x_min, x_max=x_max)
    root = solve_equilibrium(p, CapacityLaw(c0)).x_star

    def f(x):
        return c0 - h ** (1.0 / b) * x ** exponent

    assert f(root * (1.0 - 1e-12)) > 0.0 > f(root * (1.0 + 1e-12))


@pytest.mark.parametrize("fn", [dde.integrate, analysis.margin_kernel, analysis._range_side,
                                analysis.solve_equilibrium], ids=lambda fn: fn.__name__)
def test_hot_loop_compares_floats_with_float_literals(fn):
    """CPython 3.11 specialises a float comparison only when both operands
    are floats: a float tested against the int literal 0 takes the generic
    compare at every step, grid point and bisection step.  Those 7 tests
    cost ``integrate`` about 5% of its time per step on fig2 and
    ``margin_kernel`` about 9% of a certify-b profile (BENCH_25.json), and
    ``0.0`` decides every one of them the same way, NaN included.  So no
    comparison inside a ``for`` or ``while`` loop or a comprehension of these
    functions may have an int literal operand.  The rule is read from the
    source, not from ``dis``, so it holds on every Python version."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    loops = (ast.For, ast.While, ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)
    int_compares = {
        (node.lineno, node.col_offset, ast.unparse(node))
        for loop in ast.walk(tree) if isinstance(loop, loops)
        for node in ast.walk(loop) if isinstance(node, ast.Compare)
        if any(isinstance(operand, ast.Constant) and type(operand.value) is int
               for operand in (node.left, *node.comparators))
    }
    assert not int_compares


_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_TINY_FLOAT = st.floats(0.0, 1e-300)  # subnormal spans: the step may underflow


@settings(max_examples=200, deadline=None)
@given(
    lo=st.one_of(_ANY_FLOAT, _TINY_FLOAT),
    hi=st.one_of(_ANY_FLOAT, _TINY_FLOAT),
    n=st.integers(2, 600),
)
@example(lo=5e-324, hi=1e-323, n=16)  # step 0: numpy's other branch moves 7 nodes
def test_uniform_grid_is_linspace(lo, hi, n):
    with np.errstate(all="ignore"):  # spans past the float range give inf and NaN
        expected = np.linspace(lo, hi, n).tolist()
    assert [v.hex() for v in analysis.uniform_grid(lo, hi, n)] == [v.hex() for v in expected]


@st.composite
def assumption_inputs(draw):
    """A model and a range where g = 1 is crossed (t <= 1) or not (t > 1)
    near the range's top: A3 fails on some draws and holds on others.  Every
    draw reaches the A3 step: the range is increasing and inside the rate
    bounds, g > 0 on it (the affine slope is s/hi with s < 1), g(x_min) >
    x_min**13.5 and g(x_max) < x_max**13.5 bracket the equilibrium, and
    grid_n >= 16."""
    x_min = 10.0 ** draw(st.floats(-4.0, -1.0))
    x_max = 10.0 ** draw(st.floats(0.1, 3.0))
    params = ModelParams(kappa=1.0, a=1.5, b=0.2, tau=3.0, T_delay=2.0,
                         x_min=x_min, x_max=x_max)
    lo = x_min + draw(st.floats(0.0, 0.45)) * (x_max - x_min)
    hi = min(x_min + draw(st.floats(0.55, 1.0)) * (x_max - x_min), x_max)
    t = draw(st.one_of(st.floats(0.0, 1.2), st.just(1.0)))
    if draw(st.booleans()):
        slope = 10.0 ** draw(st.floats(-3.0, -0.01)) / hi
        law = CapacityLaw(1.0 + slope * (lo + t * (hi - lo)), slope)
    else:
        law = CapacityLaw(draw(st.one_of(st.floats(0.5, 1.5), st.just(1.0))))
    grid_n = draw(st.one_of(st.sampled_from([16, 17, 257]), st.integers(16, 600)))
    return params, law, (lo, hi), grid_n


@settings(max_examples=100, deadline=None)
@given(inputs=assumption_inputs())
@example(inputs=(base_params(0.8), CapacityLaw(5.0, 2.0), (0.5, 1.9), 64))  # holds
@example(inputs=(base_params(0.8), CapacityLaw(5.0, 2.0), (0.5, 2.1), 64))  # fails
def test_a3_check_matches_full_scan(inputs):
    # A3's g > 1 is tested at x_hi alone, and the grid scanned only when that
    # fails: check_stability's violations must read as those of the full
    # numpy scan
    p, law, x_range, grid_n = inputs
    expected = reference_assumptions(p, law, x_range, grid_n)
    event("A3 fails" if any(v.severity == "hard" for v in expected) else "A3 holds")
    assert list(check_stability(p, law, x_range, grid_n).violations) == expected


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
        single = [lyapunov_values(traj, [t], p, eq, theta_nodes=57)[0] for t in ts]
        ref = [reference_lyapunov(traj, t, p, eq, theta_nodes=57) for t in ts]
        assert batch.tolist() == single == ref
        seam = analysis.LYAPUNOV_BLOCK
        assert lyapunov_values(traj, ts[seam - 1 : seam + 1], p, eq, 57).tolist() == ref[
            seam - 1 : seam + 1
        ]

    def test_gain_and_kappa_not_one(self):
        from ratelab import integrate

        p = base_params(0.5, h_gain=1.3, kappa=0.7)
        eq = solve_equilibrium(p, BASE_LAW)
        traj = integrate(p, BASE_LAW, 1.0, 40.0, 0.01)
        ts = np.arange(3.0, 40.0, 0.9)
        expected = [reference_lyapunov(traj, t, p, eq) for t in ts]
        assert lyapunov_values(traj, ts, p, eq).tolist() == expected

    def test_horizon_error_names_first_bad_sample(self, fig2_result):
        traj, p = fig2_result.trajectory, fig2_result.config.params
        eq = fig2_result.report.equilibrium
        with pytest.raises(ModelDomainError, match="t = 2.5"):
            lyapunov_values(traj, [10.0, 2.5, 250.0], p, eq)
        with pytest.raises(ModelDomainError, match="t = 250.0 beyond"):
            lyapunov_values(traj, [10.0, 250.0, 2.5], p, eq)

    def test_a_nan_time_is_beyond_the_run(self, fig2_result):
        # NaN passes no span test: it is refused, in its place among the samples
        traj, p = fig2_result.trajectory, fig2_result.config.params
        eq = fig2_result.report.equilibrium
        with pytest.raises(ModelDomainError, match=r"^t = nan beyond trajectory end 200\.0$"):
            lyapunov_values(traj, [10.0, math.nan], p, eq)
        with pytest.raises(ModelDomainError, match="^t = nan beyond"):
            lyapunov_values(traj, [10.0, math.nan, 2.5], p, eq)
        with pytest.raises(ModelDomainError, match="^need max"):
            lyapunov_values(traj, [10.0, 2.5, math.nan], p, eq)

    def test_three_theta_nodes_are_accepted(self, fig2_result):
        # the fewest nodes the trapezoid takes: the sample matches the reference
        traj, p = fig2_result.trajectory, fig2_result.config.params
        eq = fig2_result.report.equilibrium
        ts = [10.0, 30.0]
        expected = [reference_lyapunov(traj, t, p, eq, theta_nodes=3) for t in ts]
        assert lyapunov_values(traj, ts, p, eq, theta_nodes=3).tolist() == expected

    def test_empty_batch(self, fig2_result):
        traj, p = fig2_result.trajectory, fig2_result.config.params
        eq = fig2_result.report.equilibrium
        assert lyapunov_values(traj, [], p, eq).shape == (0,)


class TestLyapunovValue:
    def test_zero_at_equilibrium(self):
        from ratelab import integrate

        p = base_params(0.2)
        eq = solve_equilibrium(p, BASE_LAW)
        traj = integrate(p, BASE_LAW, eq.x_star, 20.0, 0.01)
        assert lyapunov_values(traj, [10.0], p, eq)[0] == 0.0

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
                assert lyapunov_values(traj, [float(t)], p, eq)[0] >= -1e-9
                checked += 1
        assert checked > 10

    def test_quadrature_converged(self, fig2_result):
        traj = fig2_result.trajectory
        eq = fig2_result.report.equilibrium
        p = fig2_result.config.params
        coarse = lyapunov_values(traj, [30.0], p, eq, theta_nodes=201)[0]
        fine = lyapunov_values(traj, [30.0], p, eq, theta_nodes=2001)[0]
        assert coarse == pytest.approx(fine, rel=1e-4, abs=1e-9)

    def test_needs_enough_history(self, fig2_result):
        traj = fig2_result.trajectory
        eq = fig2_result.report.equilibrium
        p = fig2_result.config.params
        with pytest.raises(ModelDomainError, match=r"need max\(tau, T\) = 3.0 of recorded history"):
            lyapunov_values(traj, [2.0], p, eq)
        with pytest.raises(ModelDomainError, match="t = 201.0 beyond trajectory end 200.0"):
            lyapunov_values(traj, [201.0], p, eq)
        # and at least three theta nodes for the trapezoid over the delays
        with pytest.raises(ModelDomainError, match="theta_nodes must be at least 3, got 2"):
            lyapunov_values(traj, [30.0], p, eq, theta_nodes=2)


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

    @pytest.mark.parametrize("x_tail, kind", [
        (2.0, SATURATED),
        (0.5, SATURATED),
        (2.0 - 1e-3, UNDETERMINED),
    ], ids=["x_max", "x_min", "near-x_max"])
    def test_saturated_means_on_a_bound(self, x_tail, kind):
        # integrate records a held rate as the bound itself, so only a tail
        # exactly on a bound is Saturated; one within tol_conv of it is not
        p = base_params(0.8, x_min=0.5, x_max=2.0)
        eq = solve_equilibrium(p, BASE_LAW)
        t = np.arange(0.0, 60.0 + 1e-9, 0.01)
        cls = classify(synthetic_trajectory(t, np.full_like(t, x_tail), p), eq)
        assert cls.kind == kind
        assert cls.tail_peak_to_peak == 0.0

    def test_short_horizon_is_undetermined(self, fig2_result):
        # 5 s < 10*tau: no tail to judge, so the whole run stands in for it
        from ratelab import integrate

        p = base_params(0.2)
        eq = fig2_result.report.equilibrium
        traj = integrate(p, BASE_LAW, 1.0, 5.0, 0.01)
        cls = classify(traj, eq)
        assert cls.kind == UNDETERMINED
        assert cls.tail_peak_to_peak == float(traj.x.max() - traj.x.min())
        assert cls.settling_time is None
        assert cls.final_error == float(abs(traj.x[-1] - eq.x_star))

    def test_a_horizon_of_exactly_ten_tau_is_classified_on_its_tail(self, fig2_path):
        # fig2 has tau = 3: at t_end = 30 its tail is read and it settles at
        # 21.67, and so on the slack's edge, 10*tau - HORIZON_SLACK*step; one
        # float below that edge the whole run stands in for the tail
        cfg = load_scenario(fig2_path)
        eq = solve_equilibrium(cfg.params, cfg.law)
        traj = integrate(cfg.params, cfg.law, cfg.init_x, 30.0, cfg.step)
        on_tail = (UNDETERMINED, 0.0028051195823739494, 0.011223333672458313, 21.67)
        assert classify(traj, eq) == on_tail
        edge = 10.0 * cfg.params.tau - analysis.HORIZON_SLACK * cfg.step
        assert classify(traj._replace(t_end=edge), eq) == on_tail
        below = traj._replace(t_end=math.nextafter(edge, 0.0))
        assert classify(below, eq)[2:] == (0.19110351738981501, None)

    def test_window_between_two_samples_is_a_domain_error(self):
        # on a 1 s grid to t = 101 the mid-run window [50.399, 50.601] holds
        # no sample; a window of one step always holds one
        p = base_params(0.2)
        eq = solve_equilibrium(p, BASE_LAW)
        t = np.arange(0.0, 101.0 + 1e-9, 1.0)
        traj = synthetic_trajectory(t, np.full_like(t, eq.x_star), p)
        with pytest.raises(ModelDomainError,
                           match=r"tail_fraction = 0.002 leaves a window of 0.202 with no sample"):
            classify(traj, eq, tail_fraction=0.002)
        assert classify(traj, eq, tail_fraction=1 / 101).kind == CONVERGED
        # a window wider than half the run is refused before it is cut
        with pytest.raises(ModelDomainError, match=r"tail_fraction must be in \(0, 0.5\], got 0.6"):
            classify(traj, eq, tail_fraction=0.6)

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


@st.composite
def classify_inputs(draw):
    """A synthetic run on a dyadic grid (exact sample times), an equilibrium
    and classify's tolerances, with exact ties drawn often: a final error
    equal to tol_conv, a tail peak-to-peak equal to 0.9 times the mid-run
    one, and a tail window that starts on a sample (a dyadic tail fraction
    of a horizon of 8k steps) whose first sample is the tail's extreme."""
    p = base_params(0.2, x_min=0.5, x_max=2.0)
    step = draw(st.sampled_from([1.0, 0.5, 0.25]))
    n = 8 * draw(st.integers(1, 30))  # horizons from 2 to 240, some under 10*tau
    t = step * np.arange(n + 1)
    tail_fraction = draw(st.one_of(st.sampled_from([0.125, 0.25, 0.5]), st.floats(0.05, 0.5)))
    pool = draw(st.lists(st.floats(0.5, 2.0), min_size=1, max_size=4)) + [p.x_min, p.x_max]
    x = np.array([pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                                  min_size=n + 1, max_size=n + 1))])
    window = tail_fraction * t[-1]
    tail = t >= t[-1] - window
    mid_lo = 0.5 * (t[-1] - window)
    mid = (t >= mid_lo) & (t <= mid_lo + window)
    x_star = draw(st.sampled_from(pool))
    tol_osc = draw(st.floats(0.01, 1.0))
    if draw(st.booleans()):  # a flat tail
        x[tail] = draw(st.sampled_from(pool))
    if tail_fraction <= 0.25 and draw(st.booleans()):
        # tail peak-to-peak 0.9 * mid-run peak-to-peak exactly: 2v - v is v
        mid_pp = draw(st.floats(0.05, 0.5))
        x[mid] = np.where(np.arange(mid.sum()) % 2, 2.0 * mid_pp, mid_pp)
        tail_pp = 0.9 * mid_pp
        x[tail] = np.where(np.arange(tail.sum()) % 2, 2.0 * tail_pp, tail_pp)
        tol_osc = draw(st.floats(0.0, tail_pp, exclude_max=True))
    if draw(st.booleans()):  # the tail's first sample is its extreme
        x[np.argmax(tail)] = draw(st.sampled_from([0.25, 4.0]))
    final_error = abs(x[-1] - x_star)
    if final_error > 0.0 and draw(st.booleans()):
        tol_conv = float(final_error)
    else:
        tol_conv = draw(st.floats(1e-3, 1.0))
    traj = synthetic_trajectory(t, x, p)
    eq = Equilibrium(x_star, BASE_LAW.value(x_star), 0.0)
    return traj, eq, tol_conv, tol_osc, tail_fraction


def _classify_outcome(fn, inputs):
    try:
        return fn(*inputs)
    except ModelDomainError as exc:
        return type(exc), str(exc)


def _classify_example(x_of_t, tol_conv=1e-2):
    """A 64 s run on a 1 s grid around x* = 1 with tol_osc 0.1 and a tail
    fraction of 0.25: the tail is t >= 48 and the mid-run window [24, 40]."""
    t = np.arange(0.0, 64.5, 1.0)
    traj = synthetic_trajectory(t, np.array([x_of_t(v) for v in t]),
                                base_params(0.2, x_min=0.5, x_max=2.0))
    return traj, Equilibrium(1.0, BASE_LAW.value(1.0), 0.0), tol_conv, 0.1, 0.25


@settings(max_examples=200, deadline=None)
@given(inputs=classify_inputs())
# tail peak-to-peak 0.9 * 0.2 (Oscillating on the tie), a final error of
# 0.25 with tol_conv 0.25 (not Converged), and a tail whose first sample,
# at t = 48, alone sets its peak-to-peak
@example(inputs=_classify_example(lambda t: (1.0 + t % 2) * (0.9 * 0.2 if t >= 48 else 0.2)))
@example(inputs=_classify_example(lambda t: 1.25 if t >= 48 else 1.0, tol_conv=0.25))
@example(inputs=_classify_example(lambda t: 1.5 if t == 48 else 1.0))
def test_classify_matches_plain_loop_oracle(inputs):
    # every label, figure and settling time reads as the loops over the
    # samples, exact ties at each of the rules' boundaries included
    expected = _classify_outcome(reference_classify, inputs)
    event(getattr(expected, "kind", "error"))
    assert _classify_outcome(classify, inputs) == expected


class TestRateMapTwoCycle:
    """The rate map m(y) = F(y, y)**(-1/a) on fig2's law with a = 1.5 and
    h = 1: its unstable 2-cycle, and the delay equation following it at
    large kappa*tau."""

    @staticmethod
    def cycle(b):
        p = base_params(b)
        x_star = solve_equilibrium(p, BASE_LAW).x_star
        return two_cycle(p, BASE_LAW, x_star), x_star

    @pytest.mark.parametrize("b, lower, upper", [
        (0.3795, 0.97089, 1.46190),
        (0.379813, 1.00000, 1.42052),  # the invariant box's boundary from init_x = 1
        (0.38, 1.02049, 1.39268),
        (0.3806, 1.13166, 1.25786),
    ])
    def test_pinned_cycles(self, b, lower, upper):
        (y, m_y), _ = self.cycle(b)
        assert (round(y, 5), round(m_y, 5)) == (lower, upper)
        assert rate_map(m_y, base_params(b), BASE_LAW) == pytest.approx(y, rel=1e-12)

    def test_cycle_closes_onto_x_star_where_a_equals_b_plus_c(self):
        # A = B + C is where the margin's limit at x* vanishes (|m'(x*)| = 1);
        # below it the cycle's width falls like sqrt(b_c - b), a subcritical flip
        def local_gap(b):  # A - B - C with h = 1 and g' = -1
            a, xs, cs = 1.5, *solve_equilibrium(base_params(b), BASE_LAW)[:2]
            return (a * xs ** -(a + 1.0) - (b + 1.0) * xs ** b * cs ** -b
                    - b * xs ** (b + 1.0) * cs ** -(b + 1.0))

        lo, hi = 0.38, 0.382
        assert local_gap(lo) > 0.0 > local_gap(hi)
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if local_gap(mid) > 0.0 else (lo, mid)
        assert round(lo, 4) == 0.3807
        widths = []
        for gap in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
            (y, m_y), x_star = self.cycle(lo - gap)
            assert y < x_star < m_y
            widths.append(m_y - y)
        ratios = [w0 / w1 for w0, w1 in zip(widths, widths[1:])]
        assert all(3.0 < r < 3.3 for r in ratios)  # sqrt(10) per decade
        assert widths[-1] < 5e-3

    def test_histories_either_side_of_the_cycle_part_at_large_kappa_tau(self):
        # b = 0.37, tau = T = 40 and kappa = 10: kappa*tau = 400.  A constant
        # history just below the cycle's lower point drifts away from x*, one
        # just above drifts toward it; read the extremes of each 2*tau window
        (y, _), x_star = self.cycle(0.37)
        assert round(y, 4) == 0.6456
        p = base_params(0.37, kappa=10.0, tau=40.0, T_delay=40.0)
        k = 2000  # samples per window of 2*tau at step 0.04
        for factor, away in ((1.0 - 1e-3, True), (1.0 + 1e-3, False)):
            x = integrate(p, BASE_LAW, y * factor, 10 * 80.0, 0.04).x
            lows = [x[i * k:(i + 1) * k].min() for i in range(10)]
            highs = [x[i * k:(i + 1) * k].max() for i in range(10)]
            assert all(h > x_star > lw for lw, h in zip(lows, highs))
            steps_low, steps_high = np.diff(lows), np.diff(highs)
            if away:
                assert np.all(steps_low < 0.0) and np.all(steps_high > 0.0)
            else:
                assert np.all(steps_low > 0.0) and np.all(steps_high < 0.0)
