"""The scenario file format, both ways: loading a file and echoing a config.

A scenario file is flat INI-style key/value text.  ``FIELDS`` lists every
key with its section, parser and default, and drives loading, the config
echo, CLI overrides and sweeps; :func:`build_config` fills defaults,
validates every embedded invariant, and snaps the step down so both delays
are integer multiples of it.
"""

import configparser
import math
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import ConfigError, RatelabError
from .model import DELAY_MULTIPLE_RTOL, CapacityLaw, ModelParams

# The two spellings of a capacity law in a scenario file: [capacity] kind.
# A constant law, g(x) = level, is the affine law with slope 0.
AFFINE = "affine"
CONSTANT = "constant"

# Ceiling on t_end / step and on grid_n, checked before integrate or the
# margin scan allocates its grid: 500x the 2e4 steps of the shipped scenarios.
MAX_STEPS = 10_000_000

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
    capacity law spelling that requires the key (a file of the other
    spelling may not give it).
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


def build_config(values: dict, where: str, name: str) -> ScenarioConfig:
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
    try:
        params = ModelParams(v["kappa"], v["a"], v["b"], v["tau"], v["T"],
                             v["h"], v["x_min"], v["x_max"])
        if kind not in (AFFINE, CONSTANT):
            raise ConfigError(f"unknown capacity law kind {kind!r}")
        law = CapacityLaw(v["intercept"], v["slope"]) if kind == AFFINE else CapacityLaw(v["level"])
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
    :func:`build_config`.  ``step`` is the snapped step; a law of slope 0
    takes the constant form, ``level``, and any other the affine form."""
    p, law = cfg.params, cfg.law
    values = {"kappa": p.kappa, "a": p.a, "b": p.b, "tau": p.tau, "T": p.T_delay,
              "h": p.h_gain, "x_min": p.x_min, "x_max": p.x_max}
    if law.slope:
        values.update(kind=AFFINE, intercept=law.c0, slope=law.slope)
    else:
        values.update(kind=CONSTANT, level=law.c0)
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

    if cp.defaults():  # configparser would copy these keys into every section
        raise ConfigError(f"{path}: unknown section [{cp.default_section}]")
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
    kind = values.get("kind")
    for f in FIELDS:
        if f.key in values and kind in (AFFINE, CONSTANT) and f.kind not in (None, kind):
            law = "an affine" if kind == AFFINE else "a constant"
            raise ConfigError(f"{path}: [{f.section}] key '{f.key}' is not used by {law} law")
    return build_config(values, str(path), path.stem)


def apply_param(cfg: ScenarioConfig, key: str, value) -> ScenarioConfig:
    """Return ``cfg`` with one key of FIELDS other than ``kind`` replaced, checked
    and re-snapped from the requested step by :func:`build_config`.  The capacity
    keys apply to any law: ``intercept`` and ``level`` both set c0."""
    return apply_params(cfg, {key: value})


def apply_params(cfg: ScenarioConfig, changes: dict) -> ScenarioConfig:
    """:func:`apply_param` for several keys at once, checked together, so
    that each is checked against the others' new values."""
    if "kind" in changes:
        raise ConfigError(f"kind = {changes['kind']}: a law's kind is set only in a scenario "
                          "file; apply slope = 0 for a constant law")
    values = config_values(cfg)
    # the affine form holds every law
    values.update(kind=AFFINE, intercept=cfg.law.c0, slope=cfg.law.slope,
                  step=cfg.step_requested)
    where = []
    for key, value in changes.items():
        if key not in _FIELD_BY_KEY:
            raise ConfigError(f"unknown scenario key {key!r}")
        values["intercept" if key == "level" else key] = value
        where.append(f"{key} = {value}")
    return build_config(values, ", ".join(where), cfg.name)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


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

