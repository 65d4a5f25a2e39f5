import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratelab import (
    CapacityLaw,
    ConfigError,
    ModelDomainError,
    ModelParams,
    RatelabError,
    capacity,
    integrate,
    load_scenario,
    snap_step,
    solve_equilibrium,
)
from ratelab.config import apply_param
from ratelab.model import FLOAT_MAX
from conftest import BASE_LAW, SCENARIOS, base_params
from oracle import clamp, rhs

class TestCapacity:
    def test_affine(self):
        assert capacity(CapacityLaw(5.0, 1.0), 1.0) == 4.0

    def test_constant(self):
        assert capacity(CapacityLaw(3.0), 17.0) == 3.0

    def test_exhausted(self):
        with pytest.raises(ModelDomainError, match="capacity law returned c = 0.0 <= 0 at x = 5"):
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


_UNIT = ModelParams(kappa=1.0, a=1.0, b=1.0, tau=1.0, T_delay=1.0)
_FIG2 = load_scenario(SCENARIOS / "fig2.scenario")


def _positive(v):
    return 0 < v <= FLOAT_MAX


def _finite(v):
    return -FLOAT_MAX <= v <= FLOAT_MAX


# The eleven places that test a number against the float range, each as
# (call, whether the site accepts v, the error and message of its refusal).
# An accepted value may still fail a later check: integrate's t_end and step
# calls stop at the delay and step-count checks, before any history is made.
FLOAT_RANGE_SITES = {
    "ModelParams constants": (lambda v: ModelParams(*[v] * 6), _positive, ModelDomainError,
                              lambda v: f"kappa must be a positive finite number, got {v!r}"),
    "ModelParams x_max": (lambda v: ModelParams(1.0, 1.0, 1.0, 1.0, 1.0, x_max=v),
                          lambda v: 1e-3 < v <= FLOAT_MAX, ModelDomainError,
                          lambda v: f"rate bounds must satisfy 0 < x_min < x_max < inf, "
                                    f"got [0.001, {v}]"),
    "CapacityLaw c0": (CapacityLaw, _positive, ModelDomainError,
                       lambda v: f"capacity intercept/level must be positive, got {v}"),
    "CapacityLaw slope": (lambda v: CapacityLaw(5.0, v), lambda v: 0 <= v <= FLOAT_MAX,
                          ModelDomainError,
                          lambda v: f"capacity slope must be finite and >= 0, got {v}"),
    "snap_step step": (lambda v: snap_step(v, 1.0, 1.0), _positive, ConfigError,
                       lambda v: f"step must be positive, got {v}"),
    # a step past every finite tau ends the search within 1000 tries
    "snap_step tau": (lambda v: snap_step(FLOAT_MAX, v, 1.0), _finite, ConfigError,
                      lambda v: f"tau and T must be finite, got tau = {v}, T = 1.0"),
    "snap_step T": (lambda v: snap_step(1.0, 1.0, v), _finite, ConfigError,
                    lambda v: f"tau and T must be finite, got tau = 1.0, T = {v}"),
    "integrate t_end": (lambda v: integrate(_UNIT, BASE_LAW, 1.0, v, 2.0), _positive,
                        ModelDomainError, lambda v: f"t_end must be positive, got {v}"),
    "integrate step": (lambda v: integrate(_UNIT, BASE_LAW, 1.0, 5e-324, v), _positive,
                       ModelDomainError, lambda v: f"step must be positive, got {v}"),
    "integrate init_x": (lambda v: integrate(_UNIT, CapacityLaw(5.0), v, 1.0, 1.0), _positive,
                         ModelDomainError,
                         lambda v: f"init_x must be positive and finite, got {v}"),
    "config number key": (lambda v: apply_param(_FIG2, "t_end", v), _finite, ConfigError,
                          lambda v: f"t_end = {v}: [run] key 't_end' must be finite, got {v!r}"),
}


@pytest.mark.parametrize("value", [2 ** 1024, math.inf], ids=["2**1024", "inf"])
@pytest.mark.parametrize("site", FLOAT_RANGE_SITES)
def test_an_int_past_the_float_range_is_refused_as_inf_is(site, value):
    # an int past the float range raised a bare OverflowError from
    # math.isfinite, or passed x_max < math.inf
    call, _, error, message = FLOAT_RANGE_SITES[site]
    with pytest.raises(error) as refused:
        call(value)
    assert type(refused.value) is error
    assert str(refused.value) == message(value)


@settings(deadline=None, max_examples=300)
@given(site=st.sampled_from(list(FLOAT_RANGE_SITES)),
       value=st.one_of(st.integers(-2 ** 1100, 2 ** 1100), st.floats(),
                       st.sampled_from([math.inf, -math.inf, math.nan])))
@example(site="ModelParams constants", value=int(FLOAT_MAX) + 1)
@example(site="ModelParams x_max", value=-2 ** 1024)
@example(site="integrate step", value=FLOAT_MAX)
@example(site="snap_step tau", value=math.nan)
@example(site="snap_step T", value=math.nan)
@example(site="snap_step T", value=-FLOAT_MAX)
def test_float_range_sites_refuse_what_an_infinite_value_is_refused_for(site, value):
    # each site returns, or raises a RatelabError: for a value it refuses, its
    # own error with the message an infinite value gets; never an OverflowError
    call, accepts, error, message = FLOAT_RANGE_SITES[site]
    try:
        call(value)
    except RatelabError as exc:
        refused = (type(exc), str(exc)) == (error, message(value))
        assert refused is not accepts(value), (site, value, exc)
    else:
        assert accepts(value)
