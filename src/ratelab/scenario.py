"""Scenario configs, the end-to-end run pipeline, sweeps, and file emission.

A scenario file is flat INI-style key/value text.  ``FIELDS`` lists every
key with its section, parser and default, and drives loading, the config
echo, CLI overrides and sweeps; :func:`build_config` fills defaults,
validates every embedded invariant, and snaps the step down so both delays
are integer multiples of it.
"""

import configparser
import math
import os
from contextlib import suppress
from pathlib import Path
from typing import Callable, NamedTuple

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
from .dde import DELAY_MULTIPLE_RTOL, Trajectory, integrate
from .errors import ConfigError, RatelabError
from .model import AFFINE, CONSTANT, CapacityLaw, ModelParams
from .svgplot import line_plot_svg

# Rows formatted per write by write_csv: bounds the text held in memory.
CSV_CHUNK_ROWS = 4096
# Ceiling on t_end / step and on grid_n, checked before integrate or the
# margin scan allocates its grid: 500x the 2e4 steps of the shipped scenarios.
MAX_STEPS = 10_000_000

EXIT_CODES = {CONVERGED: 0, OSCILLATING: 10, SATURATED: 11, UNDETERMINED: 12}

SWEEPABLE = ("a", "b", "kappa", "tau", "T", "intercept", "slope")

REQUIRED = object()  # Field.default of a key without a default


def _parse_range(text: str):
    if text.lower() == "auto":
        return "auto"
    pieces = text.replace(",", " ").split()
    if len(pieces) != 2:
        raise ValueError(f"expected 'auto' or two numbers, got {text!r}")
    return float(pieces[0]), float(pieces[1])


class Field(NamedTuple):
    """One scenario key.  ``parse`` turns its file text into a value;
    ``default`` is REQUIRED for a key without one; ``kind`` names the
    capacity law that requires the key (a law of the other kind ignores it).
    """

    section: str
    key: str
    parse: Callable[[str], object]
    default: object = REQUIRED
    kind: str | None = None


# In echo order.  Keys of the run and analysis sections are the
# ScenarioConfig fields of the same name.
FIELDS = (
    Field("model", "kappa", float),
    Field("model", "a", float),
    Field("model", "b", float),
    Field("model", "tau", float),
    Field("model", "T", float),
    Field("model", "h", float, 1.0),
    Field("model", "x_min", float, 1e-3),
    Field("model", "x_max", float, 1e3),
    Field("capacity", "kind", str.lower),
    Field("capacity", "intercept", float, kind=AFFINE),
    Field("capacity", "slope", float, kind=AFFINE),
    Field("capacity", "level", float, kind=CONSTANT),
    Field("run", "init_x", float),
    Field("run", "t_end", float, 200.0),
    Field("run", "step", float, 0.01),
    Field("analysis", "margin_range", _parse_range, "auto"),
    Field("analysis", "grid_n", float, 256),
    Field("analysis", "tol_conv", float, 1e-2),
    Field("analysis", "tol_osc", float, 0.1),
    Field("analysis", "tail_fraction", float, 0.2),
)
_FIELD_BY_KEY = {f.key: f for f in FIELDS}
# section -> {key as configparser reports it, in lower case: Field}
_SECTIONS = {sec: {f.key.lower(): f for f in FIELDS if f.section == sec}
             for sec in dict.fromkeys(f.section for f in FIELDS)}
_CONFIG_KEYS = tuple(f.key for f in FIELDS if f.section in ("run", "analysis"))


class ScenarioConfig(NamedTuple):
    """A validated scenario, an immutable record.  Build it with
    :func:`build_config`; FIELDS holds the defaults."""

    params: ModelParams
    law: CapacityLaw
    init_x: float
    t_end: float
    step: float  # snapped
    step_requested: float
    margin_range: tuple[float, float] | None  # None means auto
    grid_n: int
    tol_conv: float
    tol_osc: float
    tail_fraction: float
    name: str


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
        t_first = math.ceil(p.max_delay - 1e-9)
        ts = [float(s) for s in range(t_first, int(math.floor(traj.t_end + 1e-9)) + 1)]
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
    """A sweep's rows, in input order; :func:`sweep` returns it with ``paths`` set."""

    param: str
    rows: tuple
    paths: dict | None = None


def snap_step(step: float, tau: float, t_delay: float) -> float:
    """Largest h <= step with tau/h and T/h both integral, to within the
    relative DELAY_MULTIPLE_RTOL that :func:`dde.integrate` allows.

    Refinement is capped at 1000x below the requested step and at MAX_STEPS
    steps per tau, the pre-history that integrate allocates: past that the
    delays are treated as incommensurable rather than silently exploding the
    grid or the search.
    """
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"step must be positive, got {step}")
    if tau / step > MAX_STEPS:
        raise ConfigError(
            f"tau / step = {tau / step:.4g} steps of pre-history exceeds the "
            f"ceiling of {MAX_STEPS}"
        )
    for n in range(max(1, math.ceil(tau / step - DELAY_MULTIPLE_RTOL)), MAX_STEPS + 1):
        h = tau / n
        if h < step / 1000.0:
            break
        r = t_delay / h
        r_int = round(r)
        if r_int >= 1 and abs(r - r_int) <= DELAY_MULTIPLE_RTOL * max(1.0, r):
            return h
    raise ConfigError(
        f"could not find a step in [{max(step / 1000.0, tau / MAX_STEPS):.3g}, "
        f"{step:.3g}] dividing both tau = {tau} and T = {t_delay}"
    )


def build_config(values: dict, where: str, name: str = "scenario") -> ScenarioConfig:
    """Check one scenario's key values (FIELDS names) and assemble its config.

    Missing keys take their FIELDS defaults.  Scenario files, CLI overrides
    and sweep values all come through here, so they share every check;
    ``where`` prefixes the error messages.
    """
    kind = values.get("kind")
    v = {}
    for section, key, _, default, needed_by in FIELDS:
        value = v[key] = values.get(key, default)
        if value is REQUIRED:
            if needed_by is None or needed_by == kind:
                raise ConfigError(f"{where}: missing required key '{key}' in [{section}]")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where}: [{section}] key '{key}' must be finite, got {value!r}")
    c0, slope = (v["intercept"], v["slope"]) if kind == AFFINE else (v["level"], 0.0)
    try:
        params = ModelParams(v["kappa"], v["a"], v["b"], v["tau"], v["T"],
                             v["h"], v["x_min"], v["x_max"])
        law = CapacityLaw(kind, c0, slope)
    except RatelabError as exc:
        raise ConfigError(f"{where}: invalid: {exc}") from exc

    # x_min > 0, so the bounds also keep init_x positive
    if not params.x_min <= v["init_x"] <= params.x_max:
        raise ConfigError(
            f"{where}: [run] init_x = {v['init_x']} outside rate bounds "
            f"[{params.x_min}, {params.x_max}]"
        )
    if not v["t_end"] > 0:
        raise ConfigError(f"{where}: [run] t_end must be positive, got {v['t_end']}")
    try:
        step = snap_step(v["step"], params.tau, params.T_delay)
    except ConfigError as exc:
        raise ConfigError(f"{where}: [run] {exc}") from exc
    n_steps = round(v["t_end"] / step)  # integrate's own count of steps
    if n_steps < 1:
        raise ConfigError(f"{where}: [run] t_end = {v['t_end']} shorter than one step {step}")
    if v["t_end"] / step > MAX_STEPS:
        raise ConfigError(
            f"{where}: [run] t_end / step = {v['t_end'] / step:.4g} steps exceeds "
            f"the ceiling of {MAX_STEPS}"
        )

    margin_range = v["margin_range"]
    if margin_range == "auto":
        margin_range = None
    elif not params.x_min <= margin_range[0] < margin_range[1] <= params.x_max:
        raise ConfigError(
            f"{where}: [analysis] margin_range [{margin_range[0]}, {margin_range[1]}] "
            f"must be increasing and inside the rate bounds"
        )
    elif not law.value(margin_range[1]) > 0:  # g decreases: the upper end is lowest
        raise ConfigError(
            f"{where}: [analysis] margin_range [{margin_range[0]}, {margin_range[1]}] "
            f"reaches the capacity root: g({margin_range[1]}) = {law.value(margin_range[1])} <= 0"
        )
    grid_n = int(v["grid_n"])
    if not (grid_n == v["grid_n"] and 16 <= grid_n <= MAX_STEPS):
        raise ConfigError(f"{where}: [analysis] grid_n must be a whole number in "
                          f"[16, {MAX_STEPS}], got {v['grid_n']!r}")
    if not (v["tol_conv"] > 0 and v["tol_osc"] > 0):
        raise ConfigError(f"{where}: [analysis] tolerances must be positive")
    if not 0 < v["tail_fraction"] <= 0.5:
        raise ConfigError(
            f"{where}: [analysis] tail_fraction must be in (0, 0.5], got {v['tail_fraction']}"
        )
    # classify's tail and mid-run windows span tail_fraction of the horizon
    # integrate covers; one narrower than a step can fall between two samples
    window = v["tail_fraction"] * (step * n_steps)
    if window < step:
        raise ConfigError(
            f"{where}: [analysis] tail_fraction = {v['tail_fraction']} leaves a window of "
            f"{window:.6g} over the {step * n_steps:g} horizon, shorter than one step {step}"
        )

    fields = {key: v[key] for key in _CONFIG_KEYS}
    fields.update(step=step, margin_range=margin_range, grid_n=grid_n)
    return ScenarioConfig(params, law, step_requested=v["step"], name=name, **fields)


def config_values(cfg: ScenarioConfig) -> dict:
    """The key values of ``cfg``, named as in FIELDS: the inverse of
    :func:`build_config`.  ``step`` is the snapped step; capacity keys that
    the law's kind does not use are absent."""
    p, law = cfg.params, cfg.law
    values = {"kappa": p.kappa, "a": p.a, "b": p.b, "tau": p.tau, "T": p.T_delay,
              "h": p.h_gain, "x_min": p.x_min, "x_max": p.x_max, "kind": law.kind}
    if law.kind == AFFINE:
        values["intercept"], values["slope"] = law.c0, law.slope
    else:
        values["level"] = law.c0
    for key in _CONFIG_KEYS:
        values[key] = getattr(cfg, key)
    if cfg.margin_range is None:
        values["margin_range"] = "auto"
    return values


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file, filling defaults."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"scenario file not found: {path}")
    cp = configparser.ConfigParser(
        inline_comment_prefixes=("#",), strict=True, interpolation=None
    )
    try:
        with open(path, encoding="utf-8") as fh:  # a leading byte-order mark is dropped
            cp.read_string(fh.read().removeprefix("\ufeff"), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: parse error: {exc}") from exc

    values = {}
    for sec in cp.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{sec}]")
        for key, text in cp.items(sec):
            f = _SECTIONS[sec].get(key)
            if f is None:
                raise ConfigError(f"{path}: unknown key '{key}' in [{sec}]")
            try:
                values[f.key] = f.parse(text)
            except ValueError as exc:
                raise ConfigError(f"{path}: [{sec}] key '{key}': {exc}") from exc
    return build_config(values, str(path), path.stem)


def _field_for(cfg: ScenarioConfig, key: str) -> Field:
    """The FIELDS entry that ``key`` sets in ``cfg``: ``intercept`` names a
    constant law's level, and a capacity key of the other law kind is refused."""
    if key == "intercept" and cfg.law.kind == CONSTANT:
        key = "level"
    f = _FIELD_BY_KEY.get(key)
    if f is None:
        raise ConfigError(f"unknown scenario key {key!r}")
    if f.kind not in (None, cfg.law.kind):
        raise ConfigError(f"cannot sweep {key!r} of a {cfg.law.kind} capacity law")
    return f


def apply_param(cfg: ScenarioConfig, key: str, value) -> ScenarioConfig:
    """Return ``cfg`` with one key of FIELDS replaced (``intercept`` sets a
    constant law's level), checked and re-snapped from the requested step by
    :func:`build_config`."""
    key = _field_for(cfg, key).key
    values = config_values(cfg)
    values["step"] = cfg.step_requested
    values[key] = value
    return build_config(values, f"{key} = {value}", cfg.name)


def auto_margin_range(cfg: ScenarioConfig, traj: Trajectory | None, x_star: float):
    """Rate range for the margin check when the config says 'auto'.

    With a trajectory: its envelope padded by 20% of the span on each side
    (10% of the mean when the envelope is degenerate).  Without one (the
    analysis-only path): a factor-of-two band around the equilibrium.  The
    range is clamped to the rate bounds and stops at 95% of an affine law's
    capacity root; when nothing is left, x_star*[0.9, 1.1] is clamped the
    same way, and ConfigError names the interval if that is empty too.
    """
    p = cfg.params
    if traj is not None:
        lo, hi = float(traj.x.min()), float(traj.x.max())
        span = hi - lo
        pad = 0.2 * span if span > 1e-9 * max(1.0, abs(hi)) else 0.1 * max(hi, 1e-9)
        lo, hi = lo - pad, hi + pad
    else:
        lo, hi = 0.5 * x_star, 2.0 * x_star
    top = min(p.x_max, 0.95 * cfg.law.c0 / cfg.law.slope) if cfg.law.kind == AFFINE else p.x_max
    for lo, hi in ((lo, hi), (0.9 * x_star, 1.1 * x_star)):
        lo, hi = max(lo, p.x_min), min(hi, top)
        if lo < hi:
            return (lo, hi)
    raise ConfigError(f"margin_range = auto leaves no rate range: x_star*[0.9, 1.1] clamped to "
                      f"the rate bounds and 95% of the capacity root is [{lo}, {hi}]")


def _execute(cfg: ScenarioConfig) -> RunResult:
    """Full in-memory pipeline: equilibrium, integration, margin check,
    classification.  No files are written here."""
    eq = solve_equilibrium(cfg.params, cfg.law)
    traj = integrate(cfg.params, cfg.law, cfg.init_x, cfg.t_end, cfg.step)
    x_range = cfg.margin_range or auto_margin_range(cfg, traj, eq.x_star)
    report = check_stability(cfg.params, cfg.law, x_range, cfg.grid_n)
    cls = classify(traj, eq, cfg.tol_conv, cfg.tol_osc, cfg.tail_fraction)
    return RunResult(cfg, traj, report, cls)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


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
    one included, is unlinked (a directory never is) before the exception
    propagates.  Returns ``{file stem: path}``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    begun = []
    try:
        for name, content in files.items():
            begun.append(out / name)
            if callable(content):
                content(begun[-1])
            else:
                begun[-1].write_text(content, encoding="utf-8", newline="\n")
    except BaseException:
        for path in begun:
            with suppress(OSError):
                path.unlink()
        raise
    return {path.stem: str(path) for path in begun}


def write_csv(path, header: str, row_format: str, columns) -> None:
    """Write ``header`` and one ``row_format % row`` line per row of the
    equal-length columns (numpy arrays or lists), CSV_CHUNK_ROWS rows per
    write.  An array is told from a list by its ``tolist``, so this module
    needs no numpy."""
    n = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, CSV_CHUNK_ROWS):
            chunk = [
                c[lo:lo + CSV_CHUNK_ROWS].tolist() if hasattr(c, "tolist")
                else c[lo:lo + CSV_CHUNK_ROWS]
                for c in columns
            ]
            fh.write("".join(map(row_format.__mod__, zip(*chunk))))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    write_csv(path, "t,x,c,dxdt", "%.17g,%.17g,%.17g,%.17g\n",
              [traj.t, traj.x, traj.c, traj.dxdt])


def write_lyapunov_csv(samples, path) -> None:
    write_csv(path, "t,V", "%.17g,%.17g\n",
              [[t for t, _ in samples], [v for _, v in samples]])


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
        lines.append(f"exit_code: {EXIT_CODES[cls.kind]}")
    return "\n".join(lines) + "\n"


def write_config_echo(cfg: ScenarioConfig, path) -> None:
    """Emit the effective config in the loadable scenario format, one line
    per key of FIELDS that has a value."""
    values = config_values(cfg)
    lines = ["# effective configuration echo"]
    if abs(cfg.step - cfg.step_requested) > 1e-15 * cfg.step_requested:
        lines.append(f"# step snapped down from {cfg.step_requested:g}")
    section = None
    for f in FIELDS:
        value = values.get(f.key)
        if value is None:
            continue
        if f.section != section:
            lines += [f"[{f.section}]"] if section is None else ["", f"[{f.section}]"]
            section = f.section
        if isinstance(value, tuple):
            value = " ".join(map(_fmt, value))
        elif isinstance(value, float):
            value = _fmt(value)
        lines.append(f"{f.key} = {value}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    rep, cls = res.report, res.classification
    return SweepRow(name, value, "ok", step=cfg_v.step, x_star=rep.equilibrium.x_star,
                    min_margin=rep.min_margin, verdict=rep.verdict,
                    classification=cls.kind, final_error=cls.final_error)


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
    sweep continues.
    Results are gathered by index, so the output order equals the input
    order regardless of worker scheduling.
    """
    if param_name not in SWEEPABLE:
        raise ConfigError(
            f"unknown sweep parameter {param_name!r}; choose one of {SWEEPABLE}"
        )
    _field_for(cfg, param_name)  # a capacity key of the other law kind fails every value
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("sweep needs at least one value")
    out = out_dir or os.path.join("out", f"sweep-{param_name}")
    write_outputs(out, {})  # an unusable out_dir fails here, before any value runs
    jobs = [(cfg, param_name, v) for v in values]
    # fork starts every worker at the first submit: no more than there are values or CPUs
    n_workers = min(n_jobs, len(jobs), os.cpu_count() or 1)
    if n_workers > 1:
        # imported here: a pool loads multiprocessing, which no serial path needs
        from concurrent.futures import ProcessPoolExecutor

        # every value builds a trajectory, which loads numpy: loaded once here,
        # before the workers fork, it is not imported again in each of them
        import numpy  # noqa: F401

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = tuple(pool.map(_sweep_one, jobs))
    else:
        rows = tuple(_sweep_one(j) for j in jobs)

    rep = SweepReport(param_name, rows)
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
