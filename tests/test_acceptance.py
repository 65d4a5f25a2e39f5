"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 2 and 3 run on inputs where the model promises what they check.
Criterion 2 asks for sustained oscillation, so it runs fig1's theme past the
local Hopf boundary (b = 2.0, rightmost root of the linearisation
+0.048 +/- 0.765i) rather than at fig1 itself (b = 0.8, root
-0.0345 +/- 0.788i: locally stable, its oscillation decays).  Criterion 3
checks b = 0.2 over the rates fig2's run visits (its auto margin range):
the sufficient condition holds there, but fails above x = 1.2539, so it
could never certify [0.5, 3].

Criterion 8 is a known failure with a diagnosed cause in the program, not in
the test: ``lyapunov_values`` adds a signed, unscaled integral to |x - x*|, so
it is not the Lyapunov-Krasovskii functional that the margin bounds.  It goes
negative and rises on the certified fig2 run.  The test stays as stated until
the functional is corrected; README.md gives the evidence.

Run with: pytest tests/test_acceptance.py -v -s
"""

import filecmp
import math
import time

import numpy as np
import pytest

from ratelab import (
    CERTIFIED,
    CONVERGED,
    NOT_CERTIFIED,
    OSCILLATING,
    CapacityLaw,
    ModelParams,
    check_stability,
    classify,
    integrate,
    load_scenario,
    lyapunov_values,
    snap_step,
    solve_equilibrium,
    sweep,
)
from ratelab.cli import main
from ratelab.model import AFFINE, CONSTANT
from ratelab.config import apply_param
from ratelab.scenario import _execute
from conftest import BASE_LAW, base_params


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_stable_benchmark_quantitative(fig2_path):
    t0 = time.perf_counter()
    res = _execute(load_scenario(fig2_path))
    elapsed = time.perf_counter() - t0
    eq = res.report.equilibrium
    x_end = float(res.trajectory.x[-1])
    ok_end = abs(x_end - eq.x_star) < 1e-2
    ok_xs = abs(eq.x_star - 1.1059) < 1e-3
    ok_cs = abs(eq.c_star - 3.8941) < 1e-3
    ok_time = elapsed < 5.0
    ok = ok_end and ok_xs and ok_cs and ok_time
    report(
        1,
        ok,
        f"x(200)={x_end:.6f}, x*={eq.x_star:.6f}, c*={eq.c_star:.6f}, "
        f"runtime={elapsed:.2f}s",
    )
    assert ok_end, f"|x(200) - x*| = {abs(x_end - eq.x_star):.3e} >= 1e-2"
    assert ok_xs, f"x* = {eq.x_star} not within 1e-3 of 1.1059"
    assert ok_cs, f"c* = {eq.c_star} not within 1e-3 of 3.8941"
    assert ok_time, f"runtime {elapsed:.2f}s >= 5s"


def test_criterion_02_oscillating_benchmark_qualitative(fig1_path):
    """Sustained oscillation past the local Hopf boundary of fig1's theme.

    The linearisation about x* is lambda + A + B e^(-lambda tau) +
    C e^(-lambda T) = 0.  At fig1 itself (b = 0.8; A = 0.686, B = 0.824,
    C = 0.138) its rightmost root is -0.0345 +/- 0.788i, so fig1 is locally
    asymptotically stable and its run converges (tail_pp 0.0025 against
    mid_pp 0.0388); a negative margin only withholds the certificate.  At
    tau = 3, T = 2, kappa = 1 the root crosses the imaginary axis at
    b ~ 1.225.  Fig1 with b = 2.0 has rightmost root +0.048 +/- 0.765i
    (Chebyshev pseudospectral with N = 40, 60, 80 nodes and Newton
    polishing agree), so the equilibrium is unstable and the run must
    oscillate without decay.
    """
    t0 = time.perf_counter()
    res = _execute(apply_param(load_scenario(fig1_path), "b", 2.0))
    elapsed = time.perf_counter() - t0
    cls = res.classification
    traj = res.trajectory
    horizon = traj.t_end
    window = 0.2 * horizon
    tail = traj.x[traj.t >= traj.t_end - window]
    mid_lo = 0.5 * (horizon - window)
    mid = traj.x[(traj.t >= mid_lo) & (traj.t <= mid_lo + window)]
    tail_pp = float(tail.max() - tail.min())
    mid_pp = float(mid.max() - mid.min())
    ok_kind = cls.kind == OSCILLATING
    ok_pp = tail_pp > 0.1
    ok_no_decay = tail_pp >= 0.9 * mid_pp
    ok_time = elapsed < 5.0
    ok = ok_kind and ok_pp and ok_no_decay and ok_time
    report(
        2,
        ok,
        f"classification={cls.kind}, tail_pp={tail_pp:.4f}, mid_pp={mid_pp:.4f}, "
        f"runtime={elapsed:.2f}s",
    )
    assert ok_kind, f"classification is {cls.kind}, expected {OSCILLATING}"
    assert ok_pp, f"tail peak-to-peak {tail_pp:.4f} <= 0.1"
    assert ok_no_decay, f"tail {tail_pp:.4f} < 0.9 * mid {mid_pp:.4f} (amplitude decays)"
    assert ok_time


def test_criterion_03_margin_checker_agreement(fig2_result):
    """The margin check certifies b = 0.2 over the rates its run visits and
    refuses b = 0.8.

    The certification inequality (``analysis`` module docstring) holds for
    b = 0.2 on [0.01, 1.2539) and fails above it (-0.9114 at x = 3), so the
    b = 0.2 half uses fig2's ``report.x_range`` ~ [0.9618, 1.2293]: the
    envelope of the rates the run visits, padded by 20% of its span, as the
    shipped ``margin_range = auto`` evaluates it (min margin 0.0282).
    b = 0.8 fails both over that envelope (-0.275 at its x* = 1.3672) and
    over [0.5, 3] (-1.893).
    """
    envelope = fig2_result.report.x_range
    rep_stable = check_stability(base_params(0.2), BASE_LAW, envelope, 256)
    rep_unstable = check_stability(base_params(0.8), BASE_LAW, envelope, 256)
    rep_unstable_wide = check_stability(base_params(0.8), BASE_LAW, (0.5, 3.0), 256)
    ok_stable = rep_stable.verdict == CERTIFIED
    ok_unstable = rep_unstable.verdict == NOT_CERTIFIED
    ok_unstable_wide = rep_unstable_wide.verdict == NOT_CERTIFIED
    ok = ok_stable and ok_unstable and ok_unstable_wide
    report(
        3,
        ok,
        f"over [{envelope[0]:.4f}, {envelope[1]:.4f}]: "
        f"b=0.2 -> {rep_stable.verdict} (min margin {rep_stable.min_margin:.4f}), "
        f"b=0.8 -> {rep_unstable.verdict} (min margin {rep_unstable.min_margin:.4f}); "
        f"over [0.5, 3]: b=0.8 -> {rep_unstable_wide.verdict} "
        f"(min margin {rep_unstable_wide.min_margin:.4f})",
    )
    assert ok_unstable, (
        f"b=0.8 verdict {rep_unstable.verdict} over {envelope}, expected {NOT_CERTIFIED}"
    )
    assert ok_unstable_wide, (
        f"b=0.8 verdict {rep_unstable_wide.verdict} over [0.5, 3], expected {NOT_CERTIFIED}"
    )
    assert ok_stable, (
        f"b=0.2 verdict {rep_stable.verdict} over {envelope}: min margin "
        f"{rep_stable.min_margin:.4f} at x={rep_stable.min_margin_x:.4f}"
    )


def test_criterion_04_sufficiency_soundness_sweep(fig2_path, tmp_path):
    t0 = time.perf_counter()
    cfg = load_scenario(fig2_path)
    values = [round(0.1 + 0.05 * i, 2) for i in range(19)]  # 0.1 .. 1.0
    rep = sweep(cfg, "b", values, out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    assert all(r.status == "ok" for r in rep.rows)
    unsound = [
        r.value
        for r in rep.rows
        if r.verdict == CERTIFIED and r.classification == OSCILLATING
    ]
    ok = not unsound and elapsed < 120.0
    n_cert = sum(1 for r in rep.rows if r.verdict == CERTIFIED)
    report(
        4,
        ok,
        f"{len(rep.rows)} values, {n_cert} certified, 0 expected certified+oscillating, "
        f"found {len(unsound)}, runtime={elapsed:.1f}s",
    )
    assert not unsound, f"certified values classified oscillating: {unsound}"
    assert elapsed < 120.0


def test_criterion_05_delay_independence():
    x_range = (0.95, 1.2)  # inside the certified zone for b = 0.2
    horizons = {0.5: 200.0, 3.0: 200.0, 10.0: 400.0, 30.0: 800.0}
    verdicts = []
    kinds = []
    for tau in (0.5, 3.0, 10.0, 30.0):
        t_delay = 2.0 * tau / 3.0
        p = ModelParams(kappa=1.0, a=1.5, b=0.2, tau=tau, T_delay=t_delay)
        rep = check_stability(p, BASE_LAW, x_range, 256)
        verdicts.append(rep.verdict)
        step = snap_step(0.01, tau, t_delay)
        traj = integrate(p, BASE_LAW, 1.0, horizons[tau], step)
        kinds.append(classify(traj, rep.equilibrium).kind)
    ok = all(v == CERTIFIED for v in verdicts) and all(k == CONVERGED for k in kinds)
    report(5, ok, f"verdicts={verdicts}, classifications={kinds}")
    assert all(v == CERTIFIED for v in verdicts), verdicts
    assert all(k == CONVERGED for k in kinds), kinds


def test_criterion_06_equilibrium_solver_residuals():
    rng = np.random.default_rng(20240817)
    solved = 0
    worst = 0.0
    attempts = 0
    while solved < 100 and attempts < 10000:
        attempts += 1
        a = rng.uniform(0.3, 3.0)
        b = rng.uniform(0.1, 1.5)
        c0 = rng.uniform(2.0, 10.0)
        m = rng.uniform(0.3, 3.0)
        p = ModelParams(kappa=1.0, a=a, b=b, tau=1.0, T_delay=1.0)
        law = CapacityLaw(AFFINE, c0, m)
        exponent = (a + b + 1.0) / b
        f = lambda x: law.value(x) - x ** exponent
        if f(p.x_min) * f(p.x_max) >= 0:
            continue
        eq = solve_equilibrium(p, law)
        worst = max(worst, abs(f(eq.x_star)))
        solved += 1
    eq_unit = solve_equilibrium(
        ModelParams(kappa=1.0, a=1.5, b=0.2, tau=1.0, T_delay=1.0),
        CapacityLaw(CONSTANT, 1.0),
    )
    ok = solved == 100 and worst < 1e-10 and abs(eq_unit.x_star - 1.0) < 1e-12
    report(6, ok, f"{solved} instances, worst residual {worst:.2e}, g==1 gives x*={eq_unit.x_star}")
    assert solved == 100
    assert worst < 1e-10, f"worst |g(x*) - x*^((a+b+1)/b)| = {worst:.3e}"
    assert abs(eq_unit.x_star - 1.0) < 1e-12


def test_criterion_07_integrator_order():
    p = base_params(0.2)

    def x_at_50(step: float) -> float:
        return float(integrate(p, BASE_LAW, 1.0, 50.0, step).x[-1])

    errors = []
    for step in (0.04, 0.02, 0.01):
        errors.append(abs(x_at_50(step) - x_at_50(step / 8.0)))
    factors = [errors[i] / errors[i + 1] for i in range(2)]
    ok = all(f >= 4.0 for f in factors)
    report(7, ok, f"errors={[f'{e:.2e}' for e in errors]}, halving factors={[f'{f:.1f}' for f in factors]}")
    assert ok, f"error reduction factors {factors} not all >= 4"


def test_criterion_08_lyapunov_diagnostic(fig2_result):
    """The energy functional decreases (within +1e-4) from t = 20 on, and
    V(50) is stable to 1e-6 relative under 201 -> 401 quadrature nodes.

    Known failure, caused by the program: ``lyapunov_values`` computes
    |y| + kappa*sgn(y)*integral_{-1}^{0} (G(theta) - G*) dtheta with
    y = x - x* and G(theta) = h*x(t+theta*tau)^(b+1)*c(t+theta*T)^-b.  The
    integrand is signed, enters with a plus sign and has no tau scale, so
    this is not a Lyapunov-Krasovskii functional: on this certified run
    V(20) = -5.7e-3, V(50) = -2.6e-4, and V rises by 1.37e-2 over [20, 21].
    The functional whose derivative the margin bounds is
    V_K = |y| + kappa*tau*integral_{-1}^{0} |G(theta) - G*| dtheta, with
    dV_K/dt <= -kappa*|y|*margin(x) (exact for tau = T); V_K falls over
    every integer pair from t = 20 to 200 (largest step -3.7e-12).  The
    refinement half asks more than 201-node trapezoid quadrature gives even
    for V_K (2.3e-6 relative at t = 50; V itself moves 1.07e-5).  Mending
    the functional changes fig2's lyapunov.csv, so this test stays as it
    is until that output is re-captured.
    """
    traj = fig2_result.trajectory
    eq = fig2_result.report.equilibrium
    p = fig2_result.config.params
    lyap = dict(fig2_result.lyapunov)
    ts = [float(t) for t in range(20, 201)]
    worst_inc = -math.inf
    worst_pair = None
    kept = 0
    for t1, t2 in zip(ts, ts[1:]):
        s1 = np.sign(traj.interp_x(t1) - eq.x_star)
        s2 = np.sign(traj.interp_x(t2) - eq.x_star)
        if s1 != s2:
            continue
        kept += 1
        inc = lyap[t2] - lyap[t1]
        if inc > worst_inc:
            worst_inc, worst_pair = inc, (t1, t2)
    v201 = lyapunov_values(traj, [50.0], p, eq, theta_nodes=201)[0]
    v401 = lyapunov_values(traj, [50.0], p, eq, theta_nodes=401)[0]
    rel_change = abs(v401 - v201) / abs(v201)
    ok_monotone = worst_inc <= 1e-4
    ok_quad = rel_change < 1e-6
    ok = ok_monotone and ok_quad
    report(
        8,
        ok,
        f"max V increment {worst_inc:.2e} at {worst_pair} over {kept} pairs, "
        f"V(50) refinement {rel_change:.2e} relative",
    )
    assert ok_monotone, (
        f"V increased by {worst_inc:.3e} > 1e-4 between {worst_pair} "
        f"(crossing pairs excluded)"
    )
    assert ok_quad, f"V(50) changed by {rel_change:.3e} relative >= 1e-6 under 201->401 nodes"


def test_criterion_09_equilibrium_fixed_point():
    p = base_params(0.2)
    eq = solve_equilibrium(p, BASE_LAW)
    traj = integrate(p, BASE_LAW, eq.x_star, 200.0, 0.01)
    max_dev = float(np.abs(traj.x - eq.x_star).max())
    ok = max_dev < 1e-9 * eq.x_star
    report(9, ok, f"max |x(t) - x*| = {max_dev:.2e} over 200 s (budget {1e-9 * eq.x_star:.2e})")
    assert ok


def test_criterion_10_run_determinism(fig2_path, tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["run", str(fig2_path), "--out", str(out1)]) == 0
    assert main(["run", str(fig2_path), "--out", str(out2)]) == 0
    identical = filecmp.cmp(out1 / "trajectory.csv", out2 / "trajectory.csv", shallow=False)
    report(10, identical, "two run invocations produced byte-identical trajectory CSVs")
    assert identical
