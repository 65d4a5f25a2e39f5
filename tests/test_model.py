import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratelab import (
    CapacityExhaustedError,
    CapacityLaw,
    ModelDomainError,
    ModelParams,
    capacity,
    solve_equilibrium,
)
from conftest import BASE_LAW, base_params
from oracle import clamp, rhs

class TestCapacity:
    def test_affine(self):
        assert capacity(CapacityLaw(5.0, 1.0), 1.0) == 4.0

    def test_constant(self):
        assert capacity(CapacityLaw(3.0), 17.0) == 3.0

    def test_exhausted(self):
        with pytest.raises(CapacityExhaustedError, match="x = 5"):
            capacity(CapacityLaw(5.0, 1.0), 5.0)

    def test_constant_law_slope_is_zero(self):
        assert CapacityLaw._fields == ("c0", "slope")
        assert CapacityLaw(5.0, 0.0) == CapacityLaw(5.0)
        assert CapacityLaw(2.0).value(17.0) == 2.0
        # +0.0, so the A3 warning prints g'(x) = 0, not -0
        assert math.copysign(1.0, CapacityLaw(4.0).derivative()) == 1.0
        assert CapacityLaw(5.0, 1.0).derivative() == -1.0

    def test_law_validation(self):
        for c0, slope in ((-1.0, 1.0), (0.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                          (5.0, -1.0), (5.0, math.nan), (5.0, math.inf)):
            with pytest.raises(ModelDomainError):
                CapacityLaw(c0, slope)
        with pytest.raises(ModelDomainError, match="slope must be finite and >= 0, got -1"):
            CapacityLaw(5.0, 1.0)._replace(slope=-1.0)


class TestRhs:
    """The oracle's formula against independent evaluations;
    test_dde.py's TestStageKernels ties dde.flow and dde.slope to the oracle
    bit for bit."""

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

    def test_sign_structure_around_equilibrium(self):
        # undelayed closure: x_d = x, c_d = g(x) gives rhs > 0 below x*, < 0 above
        p = base_params(0.8)
        eq = solve_equilibrium(p, BASE_LAW)
        for dx in (0.05, 0.1, 0.2, 0.4):
            below = eq.x_star - dx
            above = eq.x_star + dx
            assert rhs(below, below, BASE_LAW.value(below), p) > 0
            assert rhs(above, above, BASE_LAW.value(above), p) < 0


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

    def test_keyword_construction_checks_in_field_order(self):
        bad = dict(x_max=0.5, x_min=1.0, h_gain=0.0, T_delay=0.0, tau=0.0, b=0.0, a=0.0)
        with pytest.raises(ModelDomainError, match="^kappa must be a positive finite number"):
            ModelParams(**bad, kappa=0.0)
        with pytest.raises(ModelDomainError, match="^a must be"):
            ModelParams(**bad, kappa=1.0)
        with pytest.raises(ModelDomainError, match="^rate bounds must satisfy"):
            ModelParams(kappa=1.0, a=1.5, b=0.2, tau=3.0, T_delay=2.0, x_min=1.0, x_max=0.5)

    def test_replace_and_unpickling_check_too(self):
        p = base_params(0.2)
        with pytest.raises(ModelDomainError, match="^kappa must be"):
            p._replace(kappa=-1.0)
        with pytest.raises(ModelDomainError, match="^rate bounds"):
            p._replace(x_min=2e3)
        assert pickle.loads(pickle.dumps(p)) == p

    def test_bounds_ordering(self):
        with pytest.raises(ModelDomainError):
            base_params(0.2, x_min=2.0, x_max=1.0)

    def test_rate_bounds_must_be_finite(self):
        # an infinite x_max would make node 0 of a margin grid reaching it NaN
        with pytest.raises(ModelDomainError, match="^rate bounds must satisfy"):
            base_params(0.2, x_max=math.inf)
        with pytest.raises(ModelDomainError, match="^rate bounds must satisfy"):
            base_params(0.2)._replace(x_max=math.inf)

    def test_delay_ordering_is_enforced(self):
        # assumption A1, tau >= T, is checked at construction and by _replace
        with pytest.raises(ModelDomainError, match=r"^assumption A1 requires tau >= T, "
                           r"got tau = 2\.0, T = 3\.0$"):
            ModelParams(kappa=1.0, a=1.5, b=0.2, tau=2.0, T_delay=3.0)
        p = ModelParams(kappa=1.0, a=1.5, b=0.2, tau=3.0, T_delay=3.0)
        assert p.max_delay == 3.0
        with pytest.raises(ModelDomainError, match="A1"):
            p._replace(T_delay=3.5)
