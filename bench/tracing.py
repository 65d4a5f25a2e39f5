"""In-memory spans and call counters around ratelab's layer calls.

The tracer replaces module attributes where the caller looks them up at call
time (``_execute`` reads ``integrate`` from the globals of
``ratelab.scenario``, so wrapping ``ratelab.scenario.integrate`` sees every
integration) and puts the originals back on ``uninstall``; the program
itself carries no instrumentation.  Layer calls get a span each: name,
start, end, parent span and operation id.  Hot inner functions only get a
call counter, because a span per call would cost more than the call.
"""

import importlib
import json
import os
import time
from collections import Counter

import numpy as np

# (module, attribute, span name).  A name missing from the program is
# skipped and reported, so a later refactor reads as a zero, not a crash.
SPANNED = (
    ("ratelab.cli", "main", "cli.main"),
    ("ratelab.cli", "load_scenario", "scenario.load_scenario"),
    ("ratelab.cli", "run_scenario", "scenario.run_scenario"),
    ("ratelab.cli", "sweep", "scenario.sweep"),
    ("ratelab.cli", "format_report", "scenario.format_report"),
    ("ratelab.scenario", "load_scenario", "scenario.load_scenario"),
    ("ratelab.scenario", "_execute", "scenario._execute"),
    ("ratelab.scenario", "_sweep_one", "scenario._sweep_one"),
    ("ratelab.scenario", "apply_param", "scenario.apply_param"),
    ("ratelab.scenario", "format_report", "scenario.format_report"),
    ("ratelab.scenario", "write_trajectory_csv", "scenario.write_trajectory_csv"),
    ("ratelab.scenario", "write_lyapunov_csv", "scenario.write_lyapunov_csv"),
    ("ratelab.scenario", "write_config_echo", "scenario.write_config_echo"),
    ("ratelab.scenario", "solve_equilibrium", "analysis.solve_equilibrium"),
    ("ratelab.scenario", "check_stability", "analysis.check_stability"),
    ("ratelab.scenario", "classify", "analysis.classify"),
    ("ratelab.scenario", "lyapunov_value", "analysis.lyapunov_value"),
    ("ratelab.scenario", "make_history", "dde.make_history"),
    ("ratelab.scenario", "integrate", "dde.integrate"),
    ("ratelab.scenario", "line_plot_svg", "svgplot.line_plot_svg"),
    ("ratelab.analysis", "solve_equilibrium", "analysis.solve_equilibrium"),
    ("ratelab.analysis", "check_stability", "analysis.check_stability"),
)

# (module, attribute, counter): calls counted, no span.
COUNTED = (
    ("ratelab.dde", "rhs", "model.rhs_evals"),
    ("ratelab.dde", "capacity", "model.capacity_evals"),
    ("ratelab.analysis", "capacity", "model.capacity_evals"),
    ("ratelab.analysis", "stability_margin", "analysis.margin_points"),
)

# Span name -> layer metric its self time is charged to.  check_stability's
# self time is the margin grid (plus the assumption scan over the same grid),
# since its equilibrium solve is a child span.
SELF_METRIC = {
    "cli.main": "cli.self_ms",
    "scenario.load_scenario": "scenario.load_ms",
    "scenario.run_scenario": "scenario.self_ms",
    "scenario.sweep": "scenario.self_ms",
    "scenario._execute": "scenario.self_ms",
    "scenario._sweep_one": "scenario.self_ms",
    "scenario.apply_param": "scenario.apply_param_ms",
    "scenario.format_report": "scenario.format_report_ms",
    "scenario.write_trajectory_csv": "scenario.write_trajectory_csv_ms",
    "scenario.write_lyapunov_csv": "scenario.write_lyapunov_csv_ms",
    "scenario.write_config_echo": "scenario.write_config_echo_ms",
    "analysis.solve_equilibrium": "analysis.equilibrium_ms",
    "analysis.check_stability": "analysis.margin_ms",
    "analysis.classify": "analysis.classify_ms",
    "analysis.lyapunov_value": "analysis.lyapunov_ms",
    "dde.make_history": "dde.make_history_ms",
    "dde.integrate": "dde.integrate_ms",
    "svgplot.line_plot_svg": "svgplot.line_plot_svg_ms",
}

# Span name -> counter incremented once per span.
CALL_COUNTER = {
    "analysis.solve_equilibrium": "analysis.equilibrium_calls",
    "analysis.lyapunov_value": "analysis.lyapunov_samples",
}

SELF_MS_METRICS = tuple(sorted(set(SELF_METRIC.values())))
COUNT_METRICS = (
    "dde.steps",
    "dde.interp_calls",
    "dde.interp_points",
    "model.rhs_evals",
    "model.capacity_evals",
    "analysis.equilibrium_calls",
    "analysis.margin_points",
    "analysis.lyapunov_samples",
    "scenario.trajectory_csv_bytes",
    "svgplot.svg_bytes",
)


# Span name -> (counter, amount taken from the call's arguments and result),
# read only after the call returned.
MEASURED = {
    "dde.integrate": ("dde.steps", lambda args, res: len(res.t) - 1),
    "scenario.write_trajectory_csv": (
        "scenario.trajectory_csv_bytes", lambda args, res: os.path.getsize(args[1])
    ),
    "svgplot.line_plot_svg": (
        "svgplot.svg_bytes", lambda args, res: os.path.getsize(args[0])
    ),
}


class Tracer:
    """Spans and counters for one benchmark process, kept in memory."""

    def __init__(self):
        self.spans = []  # (op, span_id, parent_id, name, start, end)
        self.op_counts = {}  # op -> Counter
        self.op_wall = {}  # op -> seconds between begin_op and end_op
        self._op_start = 0.0
        self.missing = set()
        self._stack = []
        self._next_id = 0
        self._op = None
        self._counts = Counter()
        self._saved = []

    # -- operations ---------------------------------------------------------

    def begin_op(self, op):
        self._op = op
        self._counts = self.op_counts.setdefault(op, Counter())
        self._op_start = time.perf_counter()

    def end_op(self):
        self.op_wall[self._op] = time.perf_counter() - self._op_start
        self._op = None
        self._counts = Counter()

    # -- patching -----------------------------------------------------------

    def install(self, counters: bool):
        """Wrap the layer calls in spans, and with ``counters`` also count the
        hot inner calls.  Counting adds a Python call to each of them, so
        passes that time the layers leave it off."""
        for mod_name, attr, name in SPANNED:
            self._patch(mod_name, attr, lambda fn, n=name: self._spanned(fn, n))
        if not counters:
            return
        for mod_name, attr, key in COUNTED:
            self._patch(mod_name, attr, lambda fn, k=key: self._counted(fn, k))
        dde = importlib.import_module("ratelab.dde")
        cls = getattr(dde, "Trajectory", None)
        if cls is not None and hasattr(cls, "interp_x"):
            self._patch_obj(cls, "interp_x", self._counted_interp(cls.interp_x))
        else:
            self.missing.add("ratelab.dde.Trajectory.interp_x")

    def uninstall(self):
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    def _patch(self, mod_name, attr, make):
        mod = importlib.import_module(mod_name)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.missing.add(f"{mod_name}.{attr}")
            return
        self._patch_obj(mod, attr, make(fn))

    def _patch_obj(self, obj, attr, wrapper):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, wrapper)

    def _spanned(self, fn, name):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        call_key = CALL_COUNTER.get(name)
        measured = MEASURED.get(name)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self._op, sid, parent, name, start, end))
            if call_key:
                self._counts[call_key] += 1
            if measured:
                self._counts[measured[0]] += measured[1](args, res)
            return res

        return wrapper

    def _counted(self, fn, key):
        def wrapper(*args, **kwargs):
            self._counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_interp(self, fn):
        def interp_x(traj, t_query):
            self._counts["dde.interp_calls"] += 1
            self._counts["dde.interp_points"] += int(np.size(t_query))
            return fn(traj, t_query)

        return interp_x

    # -- results ------------------------------------------------------------

    def self_ms_by_op(self):
        """op -> {layer metric: summed self time in ms} for every traced op."""
        child_time = Counter()
        for _op, _sid, parent, _name, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for op, sid, _parent, name, start, end in self.spans:
            per_op = out.setdefault(op, Counter())
            per_op[SELF_METRIC[name]] += 1e3 * (end - start - child_time[sid])
        return out

    def span_ms(self, name):
        return [1e3 * (end - start) for *_, n, start, end in self.spans if n == name]

    def write(self, path):
        """Write every span as one JSON object per line."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op, "id": sid, "parent": parent, "name": name,
                    "start_s": start - t0, "end_s": end - t0,
                }) + "\n")
