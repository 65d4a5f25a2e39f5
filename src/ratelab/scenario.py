"""The end-to-end run pipeline, sweeps, and file emission; the scenario
file format is :mod:`ratelab.config`."""

import math
import os
from contextlib import suppress
from pathlib import Path
from typing import NamedTuple

from .analysis import (
    CERTIFIED,
    CONVERGED,
    HORIZON_SLACK,
    NOT_CERTIFIED,
    OSCILLATING,
    SATURATED,
    UNDETERMINED,
    Classification,
    StabilityReport,
    check_stability,
    classify,
    lyapunov_values,
    solve_equilibrium,
)
from .config import SWEEPABLE, ScenarioConfig, _fmt, apply_param, write_config_echo
from .config import load_scenario  # noqa: F401  re-exported: bench/ reads it from here
from .dde import Trajectory, integrate
from .errors import ConfigError, RatelabError
from .model import Equilibrium
from .svgplot import line_plot_svg

# Rows formatted per write by write_trajectory_csv: bounds the text held in memory.
CSV_CHUNK_ROWS = 4096

EXIT_CODES = {CONVERGED: 0, OSCILLATING: 10, SATURATED: 11, UNDETERMINED: 12,
              CERTIFIED: 0, NOT_CERTIFIED: 13}


class RunResult(NamedTuple):
    """One run's results; :func:`run_scenario` returns it with ``paths`` set."""

    config: ScenarioConfig
    trajectory: Trajectory
    report: StabilityReport
    classification: Classification
    paths: dict | None = None

    @property
    def lyapunov(self) -> tuple:
        """(t, V) energy samples at whole seconds from the longest delay on.

        Computed on each access: sweeps report no V and never pay for it.
        """
        p, traj = self.config.params, self.trajectory
        slack = HORIZON_SLACK * traj.step  # lyapunov_values' own, so it accepts every sample
        ts = [float(s) for s in range(math.ceil(p.max_delay - slack),
                                      math.floor(traj.t_end + slack) + 1)]
        values = lyapunov_values(traj, ts, p, self.report.equilibrium)
        return tuple(zip(ts, values.tolist()))


class SweepRow(NamedTuple):
    """One swept value.  The fields, in order, are the sweep.csv columns."""

    param: str
    value: float
    status: str  # "ok" | "error"
    step: float | None = None
    x_star: float | None = None
    min_margin: float | None = None
    verdict: str | None = None
    classification: str | None = None
    final_error: float | None = None
    message: str = ""


class SweepReport(NamedTuple):
    """A sweep's rows, in input order, and the largest exit code their errors carry
    (0 when every row is ok); :func:`sweep` returns it with ``paths`` set."""

    param: str
    rows: tuple
    exit_code: int
    paths: dict | None = None


def auto_margin_range(cfg: ScenarioConfig, traj: Trajectory | None, x_star: float):
    """Rate range for the margin check when the config says 'auto'.

    With a trajectory: its envelope padded by 20% of the span on each side
    (10% of its top when the span is at most 1e-9 times it).  Without one (the
    analysis-only path): a factor-of-two band around the equilibrium.  The
    range is clamped to the rate bounds and, for a positive slope, stops at
    95% of the capacity root; when nothing is left, x_star*[0.9, 1.1] is
    clamped the same way, and ConfigError names the interval if that is
    empty too.
    """
    p = cfg.params
    if traj is not None:
        lo, hi = float(traj.x.min()), float(traj.x.max())
        span = hi - lo
        pad = 0.2 * span if span > 1e-9 * hi else 0.1 * hi
        lo, hi = lo - pad, hi + pad
    else:
        lo, hi = 0.5 * x_star, 2.0 * x_star
    top = min(p.x_max, 0.95 * cfg.law.c0 / cfg.law.slope) if cfg.law.slope else p.x_max
    for lo, hi in ((lo, hi), (0.9 * x_star, 1.1 * x_star)):
        lo, hi = max(lo, p.x_min), min(hi, top)
        if lo < hi:
            return (lo, hi)
    raise ConfigError(f"margin_range = auto leaves no rate range: x_star*[0.9, 1.1] clamped to "
                      f"the rate bounds and 95% of the capacity root is [{lo}, {hi}]")


def margin_report(cfg: ScenarioConfig, eq: Equilibrium,
                  traj: Trajectory | None = None) -> StabilityReport:
    """The margin check over the config's range, or over :func:`auto_margin_range`'s
    when it says 'auto': the run's (``traj``) or, without one, the analysis-only one."""
    x_range = cfg.margin_range or auto_margin_range(cfg, traj, eq.x_star)
    return check_stability(cfg.params, cfg.law, x_range, cfg.grid_n)


def _execute(cfg: ScenarioConfig) -> RunResult:
    """Full in-memory pipeline: equilibrium, integration, margin check,
    classification.  No files are written here."""
    eq = solve_equilibrium(cfg.params, cfg.law)
    traj = integrate(cfg.params, cfg.law, cfg.init_x, cfg.t_end, cfg.step)
    report = margin_report(cfg, eq, traj)
    cls = classify(traj, eq, cfg.tol_conv, cfg.tol_osc, cfg.tail_fraction)
    return RunResult(cfg, traj, report, cls)


def _cell(v) -> str:
    """One sweep.csv cell: empty for None, 17 digits for a float, and text
    with its commas and newlines made harmless."""
    if isinstance(v, float):
        return _fmt(v)
    return "" if v is None else str(v).replace(",", ";").replace("\n", " ")


def write_outputs(out_dir, files) -> dict:
    """Create ``out_dir`` and write one output set into it, all or nothing.

    ``files`` maps each file name, in write order, to its text (written as
    UTF-8 with ``\\n`` newlines) or to a function that writes the file at the
    path it is given.  On any exception every file begun so far, the failing
    one included, is removed, and so is every directory the call created,
    leaf first, before the exception propagates.  Returns ``{file stem: path}``.
    """
    out = Path(out_dir)
    made = [d for d in (out, *out.parents) if not d.exists()]
    begun = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            begun.append(out / name)
            if callable(content):
                content(begun[-1])
            else:
                begun[-1].write_text(content, encoding="utf-8", newline="\n")
    except BaseException:
        for remove in [path.unlink for path in begun] + [d.rmdir for d in made]:
            with suppress(OSError):
                remove()
        raise
    return {path.stem: str(path) for path in begun}


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """The trajectory's t, x, c and dx/dt columns, CSV_CHUNK_ROWS rows per write."""
    columns = (traj.t, traj.x, traj.c, traj.dxdt)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,x,c,dxdt\n")
        for lo in range(0, len(traj.t), CSV_CHUNK_ROWS):
            chunk = [c[lo:lo + CSV_CHUNK_ROWS].tolist() for c in columns]
            fh.write("".join(map("%.17g,%.17g,%.17g,%.17g\n".__mod__, zip(*chunk))))


def write_lyapunov_csv(samples, path) -> None:
    """The (t, V) pairs ``samples``, one row each."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,V\n" + "".join(map("%.17g,%.17g\n".__mod__, samples)))


def format_report(cfg: ScenarioConfig, report: StabilityReport, cls=None) -> str:
    """Human- and grep-friendly key: value report; the classification and
    exit code lines only when ``cls`` is given (``check`` has none)."""
    eq = report.equilibrium
    p = cfg.params
    lines = [
        f"scenario: {cfg.name}",
        f"params: kappa={p.kappa:g} a={p.a:g} b={p.b:g} h={p.h_gain:g} "
        f"tau={p.tau:g} T={p.T_delay:g} bounds=[{p.x_min:g}, {p.x_max:g}]",
    ]
    if cfg.law.slope:
        lines.append(f"capacity: g(x) = {cfg.law.c0:g} - {cfg.law.slope:g}*x")
    else:
        lines.append(f"capacity: g(x) = {cfg.law.c0:g} (constant)")
    lines.append(f"step: {cfg.step:.17g} (requested {cfg.step_requested:g})")
    lines.append(f"t_end: {cfg.t_end:g}")
    lines.append(
        f"equilibrium: x_star={eq.x_star:.10g} c_star={eq.c_star:.10g} "
        f"residual={eq.residual:.3e}"
    )
    if report.violations:
        for v in report.violations:
            lines.append(f"assumption_violation: [{v.assumption}/{v.severity}] {v.description}")
    else:
        lines.append("assumption_violation: none")
    lines.append(
        f"margin_range: [{report.x_range[0]:.10g}, {report.x_range[1]:.10g}] "
        f"grid_n={report.grid_n}"
    )
    lines.append(f"min_margin: {report.min_margin:.10g} at x={report.min_margin_x:.10g}")
    lines.append(f"verdict: {report.verdict}")
    if cls is not None:
        lines.append(f"classification: {cls.kind}")
        lines.append(f"final_error: {cls.final_error:.10g}")
        lines.append(f"tail_peak_to_peak: {cls.tail_peak_to_peak:.10g}")
        st = "none" if cls.settling_time is None else f"{cls.settling_time:.10g}"
        lines.append(f"settling_time: {st}")
        lines.append(f"exit_code: {EXIT_CODES[cls.kind]}")
    return "\n".join(lines) + "\n"



def run_scenario(cfg: ScenarioConfig, out_dir=None) -> RunResult:
    """Run the pipeline and emit trajectory/energy CSVs, a report, a plot,
    and a re-loadable config echo into the output directory.

    The pipeline computes everything before the first write, and
    :func:`write_outputs` leaves no partial output set behind.
    """
    res = _execute(cfg)
    traj, lyapunov = res.trajectory, res.lyapunov
    files = {
        "trajectory.csv": lambda path: write_trajectory_csv(traj, path),
        "lyapunov.csv": lambda path: write_lyapunov_csv(lyapunov, path),
        "report.txt": format_report(cfg, res.report, res.classification),
        "plot.svg": lambda path: line_plot_svg(
            path, traj.t, [("x(t) rate", traj.x), ("c(t) capacity", traj.c)],
            title=f"{cfg.name}: rate and capacity", xlabel="t [s]",
            ylabel="rate / capacity",
        ),
        "config_echo.scenario": lambda path: write_config_echo(cfg, path),
    }
    return res._replace(paths=write_outputs(out_dir or os.path.join("out", cfg.name), files))


def _sweep_one(args) -> tuple[SweepRow, int]:
    cfg, name, value = args
    try:
        cfg_v = apply_param(cfg, name, value)
        res = _execute(cfg_v)
    except RatelabError as exc:
        return SweepRow(name, value, "error", message=str(exc)), exc.exit_code
    except Exception as exc:  # not raised on purpose: a runtime error, named in the row
        message = f"{type(exc).__name__}: {exc}"
        return SweepRow(name, value, "error", message=message), RatelabError.exit_code
    rep, cls = res.report, res.classification
    return SweepRow(name, value, "ok", step=cfg_v.step, x_star=rep.equilibrium.x_star,
                    min_margin=rep.min_margin, verdict=rep.verdict,
                    classification=cls.kind, final_error=cls.final_error), 0


def sweep(
    cfg: ScenarioConfig,
    param_name: str,
    values,
    out_dir=None,
    n_jobs: int = 1,
) -> SweepReport:
    """Run the full pipeline once per value, and write sweep.csv and
    sweep_report.txt into ``out_dir`` (default out/sweep-<param>).

    Per-value failures (any exception) become status=error rows and the
    sweep continues, and the report's ``exit_code`` is the largest they carry.
    Results are gathered by index, so the output order equals the input
    order regardless of worker scheduling.
    """
    if param_name not in SWEEPABLE:
        raise ConfigError(
            f"unknown sweep parameter {param_name!r}; choose one of {SWEEPABLE}"
        )
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("sweep needs at least one value")
    out = out_dir or os.path.join("out", f"sweep-{param_name}")
    write_outputs(out, {})  # an unusable out_dir fails here, before any value runs
    jobs = [(cfg, param_name, v) for v in values]
    # fork starts every worker at the first submit: no more than there are values
    # or CPUs this process may run on (the machine's, where the platform cannot say)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    n_workers = min(n_jobs, len(jobs), cpus)
    if n_workers > 1:
        # imported here: a pool loads multiprocessing, which no serial path needs
        from concurrent.futures import ProcessPoolExecutor

        # every value builds a trajectory, which loads numpy: loaded once here,
        # before the workers fork, it is not imported again in each of them
        import numpy  # noqa: F401

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows, codes = zip(*pool.map(_sweep_one, jobs))
    else:
        rows, codes = zip(*map(_sweep_one, jobs))

    rep = SweepReport(param_name, rows, max(codes))
    csv_text = "".join(",".join(map(_cell, r)) + "\n" for r in (SweepRow._fields, *rows))
    return rep._replace(paths=write_outputs(out, {"sweep.csv": csv_text,
                                                  "sweep_report.txt": format_sweep_summary(rep)}))


def format_sweep_summary(rep: SweepReport) -> str:
    """sweep_report.txt, derived from the rows.  Each verdict holds over its
    own run's margin range, so the bracket is not the edge of one region."""
    ok = [r for r in rep.rows if r.status == "ok"]
    certified = [r.value for r in ok if r.verdict == CERTIFIED]
    oscillating = [r.value for r in ok if r.classification == OSCILLATING]
    lc, so = max(certified, default=None), min(oscillating, default=None)
    lines = [f"sweep parameter: {rep.param}", f"values: {len(rep.rows)}",
             f"largest_certified: {'none' if lc is None else f'{lc:g}'}",
             f"smallest_oscillating: {'none' if so is None else f'{so:g}'}"]
    above = [r.value for r in ok if r.verdict != CERTIFIED and certified and r.value > lc]
    if above:
        lines.append(f"certified_boundary_bracket: ({lc:g}, {min(above):g})")
    # in increasing b, no certified value may follow an uncertified one
    flags = [r.verdict == CERTIFIED for r in sorted(ok, key=lambda r: r.value)]
    if rep.param == "b" and flags != sorted(flags, reverse=True):
        lines.append(
            "warning: certification pattern is not monotone in the swept value; "
            "flagging for review"
        )
    n_err = sum(1 for r in rep.rows if r.status == "error")
    if n_err:
        lines.append(f"errors: {n_err} value(s) failed; see sweep rows")
    return "\n".join(lines) + "\n"
