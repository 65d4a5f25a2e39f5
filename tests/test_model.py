import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratelab import (
    CapacityExhaustedError,
    CapacityLaw,
    ModelDomainError,
    ModelParams,
    capacity,
    clamp,
    price,
    rhs,
    solve_equilibrium,
    utility_derivative,
)
from ratelab.model import price_flow, stage_kernels
from conftest import BASE_LAW, base_params

positive = st.floats(min_value=1e-2, max_value=1e2)
exponents = st.floats(min_value=0.1, max_value=3.0)


class TestUtilityDerivative:
    def test_identity_base(self):
        assert utility_derivative(1.0, 1.5) == 1.0

    def test_closed_form(self):
        # 4**-(1+1) evaluated exactly
        assert utility_derivative(4.0, 1.0) == 0.0625

    def test_zero_rate_rejected(self):
        with pytest.raises(ModelDomainError):
            utility_derivative(0.0, 1.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(ModelDomainError):
            utility_derivative(-1.0, 1.5)

    @given(a=exponents)
    def test_strictly_decreasing(self, a):
        xs = [0.25, 0.5, 1.0, 2.0, 4.0]
        vals = [utility_derivative(x, a) for x in xs]
        assert all(u > v for u, v in zip(vals, vals[1:]))


class TestPrice:
    @pytest.mark.parametrize("b", [0.2, 0.8, 1.0, 2.5])
    def test_ratio_one(self, b):
        assert price(3.7, 3.7, b) == pytest.approx(1.0, rel=1e-15)

    def test_quarter_ratio(self):
        # independent evaluation through exp/log rather than pow
        oracle = math.exp(-0.8 * math.log(4.0))
        assert price(1.0, 4.0, 0.8) == pytest.approx(oracle, rel=1e-14)
        assert price(1.0, 4.0, 0.8) == pytest.approx(0.32987697769322355, rel=1e-13)

    def test_gain_passthrough(self):
        assert price(2.0, 2.0, 0.8, h_gain=0.5) == pytest.approx(0.5, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ModelDomainError):
            price(0.0, 1.0, 0.8)
        with pytest.raises(ModelDomainError):
            price(1.0, 0.0, 0.8)

    def test_monotone_in_rate_and_capacity(self):
        xs = [0.5 + 0.25 * i for i in range(12)]
        up = [price(x, 4.0, 0.8) for x in xs]
        assert all(u < v for u, v in zip(up, up[1:]))
        down = [price(1.0, c, 0.8) for c in xs]
        assert all(u > v for u, v in zip(down, down[1:]))


class TestCapacity:
    def test_affine(self):
        assert capacity(CapacityLaw.affine(5.0, 1.0), 1.0) == 4.0

    def test_constant(self):
        assert capacity(CapacityLaw.constant(3.0), 17.0) == 3.0

    def test_exhausted(self):
        with pytest.raises(CapacityExhaustedError, match="x = 5"):
            capacity(CapacityLaw.affine(5.0, 1.0), 5.0)

    def test_law_validation(self):
        with pytest.raises(ModelDomainError):
            CapacityLaw.affine(5.0, 0.0)
        with pytest.raises(ModelDomainError):
            CapacityLaw.affine(-1.0, 1.0)
        with pytest.raises(ModelDomainError):
            CapacityLaw("weird", 1.0)


class TestRhs:
    def test_equilibrium_annihilates(self):
        p = base_params(0.8)
        eq = solve_equilibrium(p, BASE_LAW)
        assert abs(rhs(eq.x_star, eq.x_star, eq.c_star, p)) < 1e-14

    def test_initial_slope_of_benchmark(self):
        # 1 - 4**-0.8 via an exp/log oracle
        p = base_params(0.8)
        oracle = 1.0 - math.exp(-0.8 * math.log(4.0))
        assert rhs(1.0, 1.0, 4.0, p) == pytest.approx(oracle, rel=1e-14)
        assert rhs(1.0, 1.0, 4.0, p) == pytest.approx(0.6701230223067765, rel=1e-13)

    def test_gain_linearity(self):
        p1 = base_params(0.8)
        p2 = base_params(0.8, kappa=2.0)
        assert rhs(1.3, 1.1, 3.9, p2) == pytest.approx(2.0 * rhs(1.3, 1.1, 3.9, p1), rel=1e-15)

    def test_domain_error_propagates(self):
        p = base_params(0.8)
        with pytest.raises(ModelDomainError):
            rhs(-1.0, 1.0, 4.0, p)
        with pytest.raises(ModelDomainError):
            rhs(1.0, 1.0, 0.0, p)

    @given(
        x=positive,
        x_d=positive,
        c_d=positive,
        a=exponents,
        b=exponents,
        h=st.floats(min_value=0.5, max_value=2.0),
    )
    def test_matches_utility_price_composition(self, x, x_d, c_d, a, b, h):
        # the primal form and the utility/price form are the same function
        p = ModelParams(kappa=1.0, a=a, b=b, tau=1.0, T_delay=1.0, h_gain=h)
        composed = p.kappa * (x * utility_derivative(x, a) - x_d * price(x_d, c_d, b, h))
        direct = rhs(x, x_d, c_d, p)
        scale = x ** -a + h * x_d ** (b + 1.0) * c_d ** -b
        assert abs(composed - direct) <= 1e-12 * scale

    def test_sign_structure_around_equilibrium(self):
        # undelayed closure: x_d = x, c_d = g(x) gives rhs > 0 below x*, < 0 above
        p = base_params(0.8)
        eq = solve_equilibrium(p, BASE_LAW)
        for dx in (0.05, 0.1, 0.2, 0.4):
            below = eq.x_star - dx
            above = eq.x_star + dx
            assert rhs(below, below, BASE_LAW.value(below), p) > 0
            assert rhs(above, above, BASE_LAW.value(above), p) < 0


class TestStageKernels:
    @given(
        x=st.floats(min_value=1e-3, max_value=1e3),
        x_d=positive,
        x_c=st.floats(min_value=0.0, max_value=4.99),
        b=exponents,
        h=st.floats(min_value=0.5, max_value=2.0),
    )
    def test_bitwise_equal_to_projected_rhs(self, x, x_d, x_c, b, h):
        p = ModelParams(kappa=1.7, a=1.5, b=b, tau=1.0, T_delay=1.0, h_gain=h,
                        x_min=0.01, x_max=50.0)
        flow, slope = stage_kernels(p, BASE_LAW)
        c_d = capacity(BASE_LAW, x_c)
        f = flow(x, x_d, x_c)
        assert f == price_flow(x_d, c_d, p)
        assert slope(x, f) == clamp(x, rhs(x, x_d, c_d, p), p)

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
        flow, slope = stage_kernels(p, BASE_LAW)
        with pytest.raises(ModelDomainError, match=match) as got:
            flow(x_now, x_d, x_c)
        with pytest.raises(ModelDomainError) as ref:
            rhs(x_now, x_d, capacity(BASE_LAW, x_c), p)
        assert str(got.value) == str(ref.value)
        with pytest.raises(ModelDomainError, match="x_now > 0"):
            slope(0.0, 1.0)


class TestClamp:
    def test_at_upper_bound(self):
        p = base_params(0.8)
        assert clamp(p.x_max, 3.0, p) == 0.0
        assert clamp(p.x_max, -2.0, p) == -2.0

    def test_at_lower_bound(self):
        p = base_params(0.8)
        assert clamp(p.x_min, -1.0, p) == 0.0
        assert clamp(p.x_min, 0.5, p) == 0.5

    def test_interior_passthrough(self):
        p = base_params(0.8)
        assert clamp(1.0, -1.0, p) == -1.0

    @given(
        x=st.floats(min_value=1e-3, max_value=1e3),
        d=st.floats(min_value=-1e6, max_value=1e6),
    )
    def test_idempotent(self, x, d):
        p = base_params(0.8)
        once = clamp(x, d, p)
        assert clamp(x, once, p) == once


class TestModelParams:
    @pytest.mark.parametrize("field", ["kappa", "a", "b", "tau", "T_delay", "h_gain"])
    def test_positive_constants_required(self, field):
        kw = dict(kappa=1.0, a=1.5, b=0.2, tau=3.0, T_delay=2.0)
        kw[field] = 0.0
        with pytest.raises(ModelDomainError, match=field):
            ModelParams(**kw)

    def test_bounds_ordering(self):
        with pytest.raises(ModelDomainError):
            base_params(0.2, x_min=2.0, x_max=1.0)

    def test_delay_ordering_left_to_validator(self):
        # construction succeeds; validate_assumptions / load_scenario report it
        p = ModelParams(kappa=1.0, a=1.5, b=0.2, tau=2.0, T_delay=3.0)
        assert p.max_delay == 3.0
