"""Scenario configs, the end-to-end run pipeline, sweeps, and file emission.

A scenario file is flat INI-style key/value text (see ``KEYS`` below and the
shipped files under scenarios/).  Loading fills defaults, validates every
embedded invariant, and snaps the step down so both delays are integer
multiples of it.
"""

import configparser
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (
    CERTIFIED,
    CONVERGED,
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
from .dde import Trajectory, integrate, make_history
from .errors import ConfigError, HorizonError, RatelabError
from .model import AFFINE, CONSTANT, CapacityLaw, ModelParams
from .svgplot import line_plot_svg

DEFAULT_T_END = 200.0
DEFAULT_STEP = 0.01
DEFAULT_GRID_N = 256
# Rows formatted per write by write_csv: bounds the text held in memory.
CSV_CHUNK_ROWS = 4096

EXIT_CODES = {CONVERGED: 0, OSCILLATING: 10, SATURATED: 11, UNDETERMINED: 12}

# section -> {key: required}
KEYS = {
    "model": {
        "kappa": True,
        "a": True,
        "b": True,
        "tau": True,
        "t": True,
        "h": False,
        "x_min": False,
        "x_max": False,
    },
    "capacity": {"kind": True, "intercept": False, "slope": False, "level": False},
    "run": {"init_x": True, "t_end": False, "step": False, "out_dir": False},
    "analysis": {
        "margin_range": False,
        "grid_n": False,
        "tol_conv": False,
        "tol_osc": False,
        "tail_fraction": False,
    },
}

SWEEPABLE = ("a", "b", "kappa", "tau", "T", "intercept", "slope")


@dataclass(frozen=True)
class ScenarioConfig:
    params: ModelParams
    law: CapacityLaw
    init_x: float
    t_end: float = DEFAULT_T_END
    step: float = DEFAULT_STEP
    step_requested: float = DEFAULT_STEP
    margin_range: tuple[float, float] | None = None  # None means auto
    grid_n: int = DEFAULT_GRID_N
    tol_conv: float = 1e-2
    tol_osc: float = 0.1
    tail_fraction: float = 0.2
    out_dir: str | None = None
    name: str = "scenario"


@dataclass(frozen=True)
class RunResult:
    config: ScenarioConfig
    trajectory: Trajectory
    report: StabilityReport
    classification: Classification
    lyapunov: tuple  # (t, V) pairs at whole seconds
    exit_code: int
    paths: dict


@dataclass(frozen=True)
class SweepRow:
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


@dataclass(frozen=True)
class SweepReport:
    param: str
    rows: tuple
    largest_certified: float | None
    smallest_oscillating: float | None
    certified_boundary: tuple[float, float] | None
    monotone_consistent: bool | None
    paths: dict


def snap_step(step: float, tau: float, t_delay: float) -> float:
    """Largest h <= step with tau/h and T/h both integral (within 1e-9 rel).

    Refinement is capped at 1000x below the requested step: past that the
    delays are treated as incommensurable rather than silently exploding the
    grid.
    """
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"step must be positive, got {step}")
    n = max(1, math.ceil(tau / step - 1e-9))
    while True:
        h = tau / n
        if h < step / 1000.0:
            break
        r = t_delay / h
        r_int = round(r)
        if r_int >= 1 and abs(r - r_int) <= 1e-9 * max(1.0, r):
            return h
        n += 1
    raise ConfigError(
        f"could not find a step in [{step / 1000.0:.3g}, {step:.3g}] dividing both "
        f"tau = {tau} and T = {t_delay}"
    )


def _get_float(section, key, path, default=None):
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"{path}: missing required key '{key}' in [{section.name}]")
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: key '{key}' is not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{path}: key '{key}' must be finite, got {raw!r}")
    return value


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file, filling defaults."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"scenario file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), strict=True)
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: parse error: {exc}") from exc

    for sec in cp.sections():
        if sec not in KEYS:
            raise ConfigError(f"{path}: unknown section [{sec}]")
        for key in cp[sec]:
            if key not in KEYS[sec]:
                raise ConfigError(f"{path}: unknown key '{key}' in [{sec}]")
    for sec, keys in KEYS.items():
        required = [k for k, req in keys.items() if req]
        if required and sec not in cp:
            raise ConfigError(f"{path}: missing section [{sec}]")

    m = cp["model"]
    try:
        params = ModelParams(
            kappa=_get_float(m, "kappa", path),
            a=_get_float(m, "a", path),
            b=_get_float(m, "b", path),
            tau=_get_float(m, "tau", path),
            T_delay=_get_float(m, "t", path),
            h_gain=_get_float(m, "h", path, 1.0),
            x_min=_get_float(m, "x_min", path, 1e-3),
            x_max=_get_float(m, "x_max", path, 1e3),
        )
    except RatelabError as exc:
        raise ConfigError(f"{path}: [model] invalid: {exc}") from exc
    if params.tau < params.T_delay:
        raise ConfigError(
            f"{path}: [model] violates assumption A1: tau >= T required, "
            f"got tau = {params.tau}, T = {params.T_delay}"
        )

    cap = cp["capacity"]
    kind = cap.get("kind", "").strip().lower()
    try:
        if kind == AFFINE:
            law = CapacityLaw.affine(
                _get_float(cap, "intercept", path), _get_float(cap, "slope", path)
            )
        elif kind == CONSTANT:
            law = CapacityLaw.constant(_get_float(cap, "level", path))
        else:
            raise ConfigError(
                f"{path}: [capacity] kind must be 'affine' or 'constant', got {kind!r}"
            )
    except RatelabError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: [capacity] invalid: {exc}") from exc

    r = cp["run"]
    init_x = _get_float(r, "init_x", path)
    if not init_x > 0:
        raise ConfigError(f"{path}: [run] init_x must be positive, got {init_x}")
    if not (params.x_min <= init_x <= params.x_max):
        raise ConfigError(
            f"{path}: [run] init_x = {init_x} outside rate bounds "
            f"[{params.x_min}, {params.x_max}]"
        )
    t_end = _get_float(r, "t_end", path, DEFAULT_T_END)
    if not t_end > 0:
        raise ConfigError(f"{path}: [run] t_end must be positive, got {t_end}")
    step_req = _get_float(r, "step", path, DEFAULT_STEP)
    if not step_req > 0:
        raise ConfigError(f"{path}: [run] step must be positive, got {step_req}")
    step = snap_step(step_req, params.tau, params.T_delay)
    out_dir = r.get("out_dir") or None

    a_sec = cp["analysis"] if "analysis" in cp else {}
    margin_raw = a_sec.get("margin_range", "auto").strip()
    if margin_raw.lower() == "auto":
        margin_range = None
    else:
        pieces = margin_raw.replace(",", " ").split()
        if len(pieces) != 2:
            raise ConfigError(
                f"{path}: [analysis] margin_range must be 'auto' or two numbers, "
                f"got {margin_raw!r}"
            )
        try:
            lo, hi = float(pieces[0]), float(pieces[1])
        except ValueError as exc:
            raise ConfigError(
                f"{path}: [analysis] margin_range values are not numbers: {margin_raw!r}"
            ) from exc
        if not (params.x_min <= lo < hi <= params.x_max):
            raise ConfigError(
                f"{path}: [analysis] margin_range [{lo}, {hi}] must be increasing "
                f"and inside the rate bounds"
            )
        margin_range = (lo, hi)
    grid_n = int(_get_float(a_sec, "grid_n", path, DEFAULT_GRID_N))
    if grid_n < 16:
        raise ConfigError(f"{path}: [analysis] grid_n must be at least 16, got {grid_n}")
    tol_conv = _get_float(a_sec, "tol_conv", path, 1e-2)
    tol_osc = _get_float(a_sec, "tol_osc", path, 0.1)
    tail_fraction = _get_float(a_sec, "tail_fraction", path, 0.2)
    if not (tol_conv > 0 and tol_osc > 0):
        raise ConfigError(f"{path}: [analysis] tolerances must be positive")
    if not (0 < tail_fraction <= 0.5):
        raise ConfigError(
            f"{path}: [analysis] tail_fraction must be in (0, 0.5], got {tail_fraction}"
        )

    return ScenarioConfig(
        params=params,
        law=law,
        init_x=init_x,
        t_end=t_end,
        step=step,
        step_requested=step_req,
        margin_range=margin_range,
        grid_n=grid_n,
        tol_conv=tol_conv,
        tol_osc=tol_osc,
        tail_fraction=tail_fraction,
        out_dir=out_dir,
        name=path.stem,
    )


def auto_margin_range(cfg: ScenarioConfig, traj: Trajectory | None, x_star: float):
    """Rate range for the margin check when the config says 'auto'.

    With a trajectory: its envelope padded by 20% of the span on each side
    (10% of the mean when the envelope is degenerate).  Without one (the
    analysis-only path): a factor-of-two band around the equilibrium, capped
    below where an affine law runs out of capacity.
    """
    p = cfg.params
    if traj is not None:
        lo = float(traj.x.min())
        hi = float(traj.x.max())
        span = hi - lo
        pad = 0.2 * span if span > 1e-9 * max(1.0, abs(hi)) else 0.1 * max(hi, 1e-9)
        lo, hi = lo - pad, hi + pad
    else:
        lo, hi = 0.5 * x_star, 2.0 * x_star
        if cfg.law.kind == AFFINE:
            hi = min(hi, 0.95 * cfg.law.c0 / cfg.law.slope)
    lo = max(lo, p.x_min)
    hi = min(hi, p.x_max)
    if not lo < hi:
        lo, hi = 0.9 * x_star, 1.1 * x_star
    return (lo, hi)


def _execute(cfg: ScenarioConfig) -> RunResult:
    """Full in-memory pipeline: equilibrium, integration, margin check,
    classification, energy sampling.  No files are written here."""
    eq = solve_equilibrium(cfg.params, cfg.law)
    history = make_history(cfg.step, cfg.params.max_delay, cfg.init_x)
    traj = integrate(cfg.params, cfg.law, history, cfg.t_end, cfg.step)
    x_range = cfg.margin_range or auto_margin_range(cfg, traj, eq.x_star)
    report = check_stability(cfg.params, cfg.law, x_range, cfg.grid_n)
    try:
        cls = classify(traj, eq, cfg.tol_conv, cfg.tol_osc, cfg.tail_fraction)
    except HorizonError:
        cls = Classification(
            kind=UNDETERMINED,
            final_error=float(abs(traj.x[-1] - eq.x_star)),
            tail_peak_to_peak=float(traj.x.max() - traj.x.min()),
            settling_time=None,
        )
    t_first = math.ceil(cfg.params.max_delay - 1e-9)
    ts = [float(s) for s in range(t_first, int(math.floor(traj.t_end + 1e-9)) + 1)]
    lyap = tuple(zip(ts, lyapunov_values(traj, ts, cfg.params, eq).tolist()))
    return RunResult(
        config=cfg,
        trajectory=traj,
        report=report,
        classification=cls,
        lyapunov=lyap,
        exit_code=EXIT_CODES[cls.kind],
        paths={},
    )


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_csv(path, header: str, row_format: str, columns) -> None:
    """Write ``header`` and one ``row_format`` line per row of the equal-length
    columns (numpy arrays or lists), CSV_CHUNK_ROWS rows per write."""
    n = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, CSV_CHUNK_ROWS):
            chunk = [
                c[lo:lo + CSV_CHUNK_ROWS].tolist() if isinstance(c, np.ndarray)
                else c[lo:lo + CSV_CHUNK_ROWS]
                for c in columns
            ]
            fh.write("".join(map(row_format.format, *chunk)))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    write_csv(path, "t,x,c,dxdt", "{:.17g},{:.17g},{:.17g},{:.17g}\n",
              [traj.t, traj.x, traj.c, traj.dxdt])


def write_lyapunov_csv(samples, path) -> None:
    write_csv(path, "t,V", "{:.17g},{:.17g}\n",
              [[t for t, _ in samples], [v for _, v in samples]])


def format_report(res_or_report, cfg: ScenarioConfig | None = None) -> str:
    """Human- and grep-friendly key: value report."""
    if isinstance(res_or_report, RunResult):
        report = res_or_report.report
        cls = res_or_report.classification
        cfg = res_or_report.config
        exit_code = res_or_report.exit_code
    else:
        report, cls, exit_code = res_or_report, None, None
    eq = report.equilibrium
    lines = []
    if cfg is not None:
        lines.append(f"scenario: {cfg.name}")
        p = cfg.params
        lines.append(
            f"params: kappa={p.kappa:g} a={p.a:g} b={p.b:g} h={p.h_gain:g} "
            f"tau={p.tau:g} T={p.T_delay:g} bounds=[{p.x_min:g}, {p.x_max:g}]"
        )
        if cfg.law.kind == AFFINE:
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
    if exit_code is not None:
        lines.append(f"exit_code: {exit_code}")
    return "\n".join(lines) + "\n"


def write_config_echo(cfg: ScenarioConfig, path) -> None:
    """Emit the effective config in the loadable scenario format."""
    p = cfg.params
    lines = ["# effective configuration echo"]
    if abs(cfg.step - cfg.step_requested) > 1e-15 * cfg.step_requested:
        lines.append(f"# step snapped down from {cfg.step_requested:g}")
    lines += [
        "[model]",
        f"kappa = {p.kappa:.17g}",
        f"a = {p.a:.17g}",
        f"b = {p.b:.17g}",
        f"tau = {p.tau:.17g}",
        f"T = {p.T_delay:.17g}",
        f"h = {p.h_gain:.17g}",
        f"x_min = {p.x_min:.17g}",
        f"x_max = {p.x_max:.17g}",
        "",
        "[capacity]",
        f"kind = {cfg.law.kind}",
    ]
    if cfg.law.kind == AFFINE:
        lines.append(f"intercept = {cfg.law.c0:.17g}")
        lines.append(f"slope = {cfg.law.slope:.17g}")
    else:
        lines.append(f"level = {cfg.law.c0:.17g}")
    lines += [
        "",
        "[run]",
        f"init_x = {cfg.init_x:.17g}",
        f"t_end = {cfg.t_end:.17g}",
        f"step = {cfg.step:.17g}",
        "",
        "[analysis]",
    ]
    if cfg.margin_range is None:
        lines.append("margin_range = auto")
    else:
        lines.append(
            f"margin_range = {cfg.margin_range[0]:.17g} {cfg.margin_range[1]:.17g}"
        )
    lines += [
        f"grid_n = {cfg.grid_n}",
        f"tol_conv = {cfg.tol_conv:.17g}",
        f"tol_osc = {cfg.tol_osc:.17g}",
        f"tail_fraction = {cfg.tail_fraction:.17g}",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> RunResult:
    """Run the pipeline and emit trajectory/energy CSVs, a report, a plot,
    and a re-loadable config echo into the output directory.

    The pipeline computes everything before the first write, and a failed
    write removes whatever was already emitted, so no partial output set is
    left behind.
    """
    res = _execute(cfg)
    out = Path(out_dir or cfg.out_dir or os.path.join("out", cfg.name))
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "trajectory": out / "trajectory.csv",
        "lyapunov": out / "lyapunov.csv",
        "report": out / "report.txt",
        "plot": out / "plot.svg",
        "config_echo": out / "config_echo.scenario",
    }
    written = []
    try:
        write_trajectory_csv(res.trajectory, paths["trajectory"])
        written.append(paths["trajectory"])
        write_lyapunov_csv(res.lyapunov, paths["lyapunov"])
        written.append(paths["lyapunov"])
        with open(paths["report"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_report(res))
        written.append(paths["report"])
        line_plot_svg(
            paths["plot"],
            res.trajectory.t,
            [("x(t) rate", res.trajectory.x), ("c(t) capacity", res.trajectory.c)],
            title=f"{cfg.name}: rate and capacity",
            xlabel="t [s]",
            ylabel="rate / capacity",
        )
        written.append(paths["plot"])
        write_config_echo(cfg, paths["config_echo"])
        written.append(paths["config_echo"])
    except BaseException:
        for w in written:
            try:
                w.unlink()
            except OSError:
                pass
        raise
    return replace(res, paths={k: str(v) for k, v in paths.items()})


def apply_param(cfg: ScenarioConfig, name: str, value: float) -> ScenarioConfig:
    """Return a config with one swept parameter replaced (re-snapping the step
    when a delay changes)."""
    if name in ("a", "b", "kappa"):
        params = replace(cfg.params, **{name: value})
        law = cfg.law
    elif name == "tau":
        params = replace(cfg.params, tau=value)
        law = cfg.law
    elif name in ("T", "T_delay"):
        params = replace(cfg.params, T_delay=value)
        law = cfg.law
    elif name == "intercept":
        params = cfg.params
        law = CapacityLaw(cfg.law.kind, value, cfg.law.slope)
    elif name == "slope":
        if cfg.law.kind != AFFINE:
            raise ConfigError("cannot sweep 'slope' of a constant capacity law")
        params = cfg.params
        law = CapacityLaw.affine(cfg.law.c0, value)
    else:
        raise ConfigError(
            f"unknown sweep parameter {name!r}; choose one of {SWEEPABLE}"
        )
    if params.tau < params.T_delay:
        raise ConfigError(
            f"sweep value {name} = {value} violates assumption A1 "
            f"(tau = {params.tau} < T = {params.T_delay})"
        )
    step = snap_step(cfg.step_requested, params.tau, params.T_delay)
    return replace(cfg, params=params, law=law, step=step)


def _sweep_one(args) -> SweepRow:
    cfg, name, value = args
    try:
        cfg_v = apply_param(cfg, name, value)
        res = _execute(cfg_v)
    except Exception as exc:
        message = str(exc)
        if not isinstance(exc, RatelabError):
            message = f"{type(exc).__name__}: {message}"
        return SweepRow(param=name, value=value, status="error", message=message)
    return SweepRow(
        param=name,
        value=value,
        status="ok",
        step=cfg_v.step,
        x_star=res.report.equilibrium.x_star,
        min_margin=res.report.min_margin,
        verdict=res.report.verdict,
        classification=res.classification.kind,
        final_error=res.classification.final_error,
    )


def sweep(
    cfg: ScenarioConfig,
    param_name: str,
    values,
    out_dir=None,
    n_jobs: int = 1,
) -> SweepReport:
    """Run the full pipeline once per value and summarize.

    Per-value failures (any exception) become status=error rows and the
    sweep continues.
    Results are gathered by index, so the output order equals the input
    order regardless of worker scheduling.
    """
    if param_name not in SWEEPABLE and param_name != "T_delay":
        raise ConfigError(
            f"unknown sweep parameter {param_name!r}; choose one of {SWEEPABLE}"
        )
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("sweep needs at least one value")
    jobs = [(cfg, param_name, v) for v in values]
    if n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            rows = tuple(pool.map(_sweep_one, jobs))
    else:
        rows = tuple(_sweep_one(j) for j in jobs)

    certified = [r.value for r in rows if r.status == "ok" and r.verdict == CERTIFIED]
    uncertified = [r.value for r in rows if r.status == "ok" and r.verdict != CERTIFIED]
    oscillating = [
        r.value for r in rows if r.status == "ok" and r.classification == OSCILLATING
    ]
    largest_certified = max(certified) if certified else None
    smallest_oscillating = min(oscillating) if oscillating else None
    boundary = None
    if certified and uncertified:
        above = [v for v in uncertified if v > largest_certified]
        if above:
            boundary = (largest_certified, min(above))

    monotone = None
    if param_name == "b":
        ordered = sorted((r for r in rows if r.status == "ok"), key=lambda r: r.value)
        seen_uncertified = False
        monotone = True
        for r in ordered:
            if r.verdict != CERTIFIED:
                seen_uncertified = True
            elif seen_uncertified:
                monotone = False
                break

    paths: dict = {}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "sweep.csv"

        def cell(v):
            return "" if v is None else (_fmt(v) if isinstance(v, float) else str(v))

        write_csv(
            csv_path,
            "param,value,status,step,x_star,min_margin,verdict,classification,"
            "final_error,message",
            "{},{:.17g},{},{},{},{},{},{},{},{}\n",
            [
                [r.param for r in rows],
                [r.value for r in rows],
                [r.status for r in rows],
                *(
                    [cell(getattr(r, f)) for r in rows]
                    for f in ("step", "x_star", "min_margin", "verdict",
                              "classification", "final_error")
                ),
                [r.message.replace(",", ";").replace("\n", " ") for r in rows],
            ],
        )
        paths["sweep_csv"] = str(csv_path)
        summary_path = out / "sweep_report.txt"
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_sweep_summary(
                SweepReport(param_name, rows, largest_certified, smallest_oscillating,
                            boundary, monotone, {})
            ))
        paths["sweep_report"] = str(summary_path)

    return SweepReport(
        param=param_name,
        rows=rows,
        largest_certified=largest_certified,
        smallest_oscillating=smallest_oscillating,
        certified_boundary=boundary,
        monotone_consistent=monotone,
        paths=paths,
    )


def format_sweep_summary(rep: SweepReport) -> str:
    lines = [f"sweep parameter: {rep.param}", f"values: {len(rep.rows)}"]
    lc = "none" if rep.largest_certified is None else f"{rep.largest_certified:g}"
    so = "none" if rep.smallest_oscillating is None else f"{rep.smallest_oscillating:g}"
    lines.append(f"largest_certified: {lc}")
    lines.append(f"smallest_oscillating: {so}")
    if rep.certified_boundary is not None:
        lines.append(
            f"certified_boundary_bracket: ({rep.certified_boundary[0]:g}, "
            f"{rep.certified_boundary[1]:g})"
        )
    if rep.monotone_consistent is not None and not rep.monotone_consistent:
        lines.append(
            "warning: certification pattern is not monotone in the swept value; "
            "flagging for review"
        )
    n_err = sum(1 for r in rep.rows if r.status == "error")
    if n_err:
        lines.append(f"errors: {n_err} value(s) failed; see sweep rows")
    return "\n".join(lines) + "\n"
