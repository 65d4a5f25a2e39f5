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
from .model import DELAY_MULTIPLE_RTOL, FLOAT_MAX, CapacityLaw, ModelParams, is_number, whole_steps

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
_FIELD_INDEX = {f.key: i for i, f in enumerate(FIELDS)}
# The record field each model and capacity key sets; level is the constant law's c0
_MODEL_KEYS = tuple(f.key for f in FIELDS if f.section == "model")
_RECORD_FIELD = {**dict(zip(_MODEL_KEYS, ModelParams._fields)),
                 "intercept": "c0", "slope": "slope", "level": "c0"}
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
    """Largest h <= step in which tau and T are both whole numbers of steps by
    :func:`model.whole_steps`, the test that :func:`dde.integrate` applies.

    Refinement is capped at 1000x below the requested step and at MAX_STEPS
    steps per tau, the pre-history that integrate allocates: past that the
    delays are treated as incommensurable rather than silently exploding the
    grid or the search.
    """
    if not 0 < step <= FLOAT_MAX:
        raise ConfigError(f"step must be positive, got {step}")
    if not (-FLOAT_MAX <= tau <= FLOAT_MAX and -FLOAT_MAX <= t_delay <= FLOAT_MAX):
        raise ConfigError(f"tau and T must be finite, got tau = {tau}, T = {t_delay}")
    if tau / step > MAX_STEPS:
        raise ConfigError(
            f"tau / step = {tau / step:.4g} steps of pre-history exceeds the "
            f"ceiling of {MAX_STEPS}"
        )
    for n in range(math.ceil(max(1.0, tau / step - DELAY_MULTIPLE_RTOL)), MAX_STEPS + 1):
        h = tau / n
        if h < step / 1000.0:
            break
        if whole_steps(t_delay, h) > 0:  # a negative T is whole in no step
            return h
    raise ConfigError(
        f"could not find a step in [{max(step / 1000.0, tau / MAX_STEPS):.3g}, "
        f"{step:.3g}] dividing both tau = {tau} and T = {t_delay}"
    )


def _check_value(f: Field, value):
    """``value`` for the key ``f``, refused unless a number key's value is an
    int or a float (never a bool) within the float range and margin_range's
    is 'auto' or a tuple of two numbers; ``kind`` and a key left out
    (REQUIRED) pass."""
    if f.parse is _parse_range:
        if not ((isinstance(value, str) and value == "auto")
                or (type(value) is tuple and len(value) == 2 and all(map(is_number, value)))):
            raise ConfigError(f"[{f.section}] key '{f.key}' must be 'auto' or a pair "
                              f"of numbers, got {value!r}")
    elif f.parse is float and value is not REQUIRED:
        if not is_number(value):
            raise ConfigError(f"[{f.section}] key '{f.key}' must be a number, got {value!r}")
        if not -FLOAT_MAX <= value <= FLOAT_MAX:  # NaN, inf or an int past the float range
            raise ConfigError(f"[{f.section}] key '{f.key}' must be finite, got {value!r}")
    return value


def _located(exc: RatelabError, where: str) -> ConfigError:
    """``exc`` as a config error at ``where``; a record's refusal (any error but
    a ConfigError) reads as an invalid value."""
    invalid = "" if isinstance(exc, ConfigError) else "invalid: "
    return ConfigError(f"{where}: {invalid}{exc}")


def build_config(values: dict, where: str, name: str) -> ScenarioConfig:
    """Check one scenario's key values (FIELDS names) and assemble its config.

    Missing keys take their FIELDS defaults.  Scenario files come through
    here, and CLI overrides and sweep values share its checks through
    :func:`_assemble`; ``where`` locates the errors (:func:`_located`).
    """
    kind = values.get("kind")
    v = {}
    try:
        for f in FIELDS:
            value = v[f.key] = values.get(f.key, f.default)
            if value is REQUIRED and (f.kind is None or f.kind == kind):
                raise ConfigError(f"missing required key '{f.key}' in [{f.section}]")
            _check_value(f, value)
        params = ModelParams(*(v[key] for key in _MODEL_KEYS))
        if kind not in (AFFINE, CONSTANT):
            raise ConfigError(f"invalid: unknown capacity law kind {kind!r}")
        law = CapacityLaw(v["intercept"], v["slope"]) if kind == AFFINE else CapacityLaw(v["level"])
        return _assemble(params, law, v, name)
    except RatelabError as exc:
        raise _located(exc, where) from exc


def _assemble(params, law, v: dict, name: str, step=None) -> ScenarioConfig:
    """The checks across records and keys, then the config: ``v`` holds the run
    and analysis keys' values, and a given ``step`` is their snapped step."""
    # x_min > 0, so the bounds also keep init_x positive
    if not params.x_min <= v["init_x"] <= params.x_max:
        raise ConfigError(f"[run] init_x = {v['init_x']} outside rate bounds "
                          f"[{params.x_min}, {params.x_max}]")
    if not law.value(v["init_x"]) > 0:  # A2: the run starts where c = g(x) > 0
        raise ConfigError(f"[run] init_x = {v['init_x']} reaches the capacity root: "
                          f"g({v['init_x']}) = {law.value(v['init_x'])} <= 0")
    if not v["t_end"] > 0:
        raise ConfigError(f"[run] t_end must be positive, got {v['t_end']}")
    try:
        step = step or snap_step(v["step"], params.tau, params.T_delay)
    except ConfigError as exc:
        raise ConfigError(f"[run] {exc}") from exc
    if v["t_end"] / step > MAX_STEPS:  # before round(), which refuses an infinite count
        raise ConfigError(f"[run] t_end / step = {v['t_end'] / step:.4g} steps exceeds "
                          f"the ceiling of {MAX_STEPS}")
    n_steps = round(v["t_end"] / step)  # integrate's own count of steps
    if n_steps < 1:
        raise ConfigError(f"[run] t_end = {v['t_end']} shorter than one step {step}")

    margin_range = v["margin_range"]
    if margin_range == "auto":
        margin_range = None
    elif not params.x_min <= margin_range[0] < margin_range[1] <= params.x_max:
        raise ConfigError(f"[analysis] margin_range [{margin_range[0]}, {margin_range[1]}] "
                          "must be increasing and inside the rate bounds")
    elif not law.value(margin_range[1]) > 0:  # g decreases: the upper end is lowest
        raise ConfigError(f"[analysis] margin_range [{margin_range[0]}, {margin_range[1]}] "
                          f"reaches the capacity root: g({margin_range[1]}) = "
                          f"{law.value(margin_range[1])} <= 0")
    grid_n = int(v["grid_n"])
    if not (grid_n == v["grid_n"] and 16 <= grid_n <= MAX_STEPS):
        raise ConfigError(f"[analysis] grid_n must be a whole number in [16, {MAX_STEPS}], "
                          f"got {v['grid_n']!r}")
    if not (v["tol_conv"] > 0 and v["tol_osc"] > 0):
        raise ConfigError("[analysis] tolerances must be positive")
    if not 0 < v["tail_fraction"] <= 0.5:
        raise ConfigError(f"[analysis] tail_fraction must be in (0, 0.5], got {v['tail_fraction']}")
    # classify's tail and mid-run windows span tail_fraction of the horizon
    # integrate covers; one narrower than a step can fall between two samples
    window = v["tail_fraction"] * (step * n_steps)
    if window < step:
        raise ConfigError(f"[analysis] tail_fraction = {v['tail_fraction']} leaves a window of "
                          f"{window:.6g} over the {step * n_steps:g} horizon, shorter than one "
                          f"step {step}")

    return ScenarioConfig(params, law, v["init_x"], v["t_end"], step, v["step"], margin_range,
                          grid_n, v["tol_conv"], v["tol_osc"], v["tail_fraction"], name)


def config_values(cfg: ScenarioConfig) -> dict:
    """The key values of ``cfg``, named as in FIELDS: the inverse of
    :func:`build_config`.  ``step`` is the snapped step; a law of slope 0
    takes the constant form, ``level``, and any other the affine form."""
    values = dict(zip(_MODEL_KEYS, cfg.params))
    if cfg.law.slope:
        values.update(kind=AFFINE, intercept=cfg.law.c0, slope=cfg.law.slope)
    else:
        values.update(kind=CONSTANT, level=cfg.law.c0)
    values.update({key: getattr(cfg, key) for key in _CONFIG_KEYS},
                  margin_range=cfg.margin_range or "auto")
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
    and re-snapped from the requested step as :func:`build_config` does.  The
    capacity keys apply to any law: ``intercept`` and ``level`` both set c0."""
    return apply_params(cfg, {key: value})


def apply_params(cfg: ScenarioConfig, changes: dict) -> ScenarioConfig:
    """:func:`apply_param` for several keys at once, checked together; only the
    records the keys set are rebuilt, and the errors are :func:`build_config`'s."""
    if "kind" in changes:
        raise ConfigError(f"kind = {changes['kind']}: a law's kind is set only in a scenario "
                          "file; apply slope = 0 for a constant law")
    for key in changes:
        if key not in _FIELD_INDEX:
            raise ConfigError(f"unknown scenario key {key!r}")
    # the affine form holds every law: level is checked and reported as intercept
    new = {"intercept" if key == "level" else key: value for key, value in changes.items()}
    v = {"init_x": cfg.init_x, "t_end": cfg.t_end, "step": cfg.step_requested,
         "margin_range": cfg.margin_range or "auto", "grid_n": cfg.grid_n,
         "tol_conv": cfg.tol_conv, "tol_osc": cfg.tol_osc, "tail_fraction": cfg.tail_fraction}
    model, capacity = {}, {}
    edits = {"model": model, "capacity": capacity, "run": v, "analysis": v}
    try:
        for i in sorted(map(_FIELD_INDEX.get, new)):  # in FIELDS order
            f = FIELDS[i]
            edits[f.section][_RECORD_FIELD.get(f.key, f.key)] = _check_value(f, new[f.key])
        params = cfg.params._replace(**model) if model else cfg.params
        law = cfg.law._replace(**capacity) if capacity else cfg.law
        step = cfg.step if new.keys().isdisjoint(("step", "tau", "T")) else None  # same snap
        return _assemble(params, law, v, cfg.name, step)
    except RatelabError as exc:
        where = ", ".join(f"{key} = {value}" for key, value in changes.items())
        raise _located(exc, where) from exc


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

