"""One workload in a fresh interpreter: warm up, time, check, report.

Started by run.py with the checkout's ``src`` first on PYTHONPATH.  Prints
one JSON object (the raw measurements) as its last stdout line.  Every
operation is checked against bench/goldens.json after its timer stops.
"""

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import common
from tracing import COUNT_METRICS, SELF_MS_METRICS, Tracer

import ratelab  # from the checkout's src, verified in main()
import ratelab.analysis
import ratelab.cli
import ratelab.scenario

TRACE_SETUP_LOADS = 5


class RunFig2:
    """`ratelab run scenarios/fig2.scenario --out <tmp>` through cli.main."""

    values_per_op = 1
    calib_units = 8  # about a fifth of a run

    def __init__(self, work: Path, goldens: dict):
        self.out = work / "run"
        self.golden = goldens["run_fig2"]

    def execute(self, _index):
        with contextlib.redirect_stdout(io.StringIO()):
            return ratelab.cli.main(["run", str(common.FIG2), "--out", str(self.out)])

    def check(self, _index, code) -> bool:
        ok = (code == self.golden["exit_code"]
              and common.run_outputs_match(self.out, self.golden["files"]))
        shutil.rmtree(self.out, ignore_errors=True)
        return ok


class SweepB:
    """`ratelab sweep scenarios/fig2.scenario --param b --values ...`, serial."""

    values_per_op = common.VALUES_PER_SWEEP
    calib_units = 16  # about a sixth of a sweep call

    def __init__(self, work: Path, goldens: dict):
        self.out = work / "sweep"
        self.grid = common.b_grid(common.SWEEP_GRID_N)
        self.rows = goldens["sweep_b"]["rows"]
        if [common.parse_sweep_row(r)["value"] for r in self.rows] != self.grid:
            raise SystemExit("goldens.json sweep_b rows do not match the sweep grid")

    def execute(self, indices):
        values = ",".join(repr(self.grid[i]) for i in indices)
        argv = ["sweep", str(common.FIG2), "--param", "b", "--values", values,
                "--out", str(self.out)]
        with contextlib.redirect_stdout(io.StringIO()):
            return ratelab.cli.main(argv)

    def check(self, indices, code) -> bool:
        golden_rows = [self.rows[i] for i in indices]
        ok = code == 0 and common.sweep_outputs_match(self.out, golden_rows)
        shutil.rmtree(self.out, ignore_errors=True)
        return ok


class CertifyB:
    """apply_param, then check_stability over the fixed fig2 envelope."""

    values_per_op = 1
    calib_units = 1  # about a third of a batch of checks

    def __init__(self, work: Path, goldens: dict):
        self.grid = common.b_grid(common.CERTIFY_GRID_N)
        gold = goldens["certify_b"]
        self.x_range = tuple(float(v) for v in gold["x_range"])
        self.results = gold["results"]  # [b repr, verdict, min_margin repr]
        if [float(r[0]) for r in self.results] != self.grid:
            raise SystemExit("goldens.json certify_b results do not match the grid")
        self.cfg = ratelab.scenario.load_scenario(common.FIG2)

    def execute(self, index):
        cfg_b = ratelab.scenario.apply_param(self.cfg, "b", self.grid[index])
        rep = ratelab.analysis.check_stability(
            cfg_b.params, cfg_b.law, self.x_range, self.cfg.grid_n
        )
        return rep.verdict, repr(rep.min_margin)

    def check(self, index, result) -> bool:
        return list(result) == self.results[index][1:]


WORKLOAD_CLASSES = {"run-fig2": RunFig2, "sweep-b": SweepB, "certify-b": CertifyB}


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.name = workload
        self.seed = seed
        self.wl = WORKLOAD_CLASSES[workload](work, common.load_goldens())
        self.attempted = 0
        self.failed = 0

    def op_inputs(self, k):
        """The operations of batch k: one sweep call over the drawn values for
        sweep-b, one check per drawn value for certify-b, one run for run-fig2."""
        idx = common.batch_indices(self.name, self.seed, k)
        return [idx] if self.name == "sweep-b" else idx

    def _execute(self, x):
        try:
            return self.wl.execute(x)
        except Exception as exc:  # an operation that raises is a failed one
            print(f"operation raised {type(exc).__name__}: {exc}", file=sys.stderr)
            return exc

    def _check(self, pairs):
        for x, res in pairs:
            self.attempted += 1
            if isinstance(res, Exception) or not self.wl.check(x, res):
                self.failed += 1

    def batch(self, k, tracer=None, tag=None):
        """Run batch k and return its wall time; checks run after the clock
        stops.  With a tracer, operation j is traced as op (tag, k, j)."""
        ops = self.op_inputs(k)
        t0 = time.perf_counter()
        if tracer is None:
            results = [self._execute(x) for x in ops]
        else:
            results = []
            for j, x in enumerate(ops):
                tracer.begin_op((tag, k, j))
                results.append(self._execute(x))
                tracer.end_op()
        dt = time.perf_counter() - t0
        self._check(zip(ops, results))
        return dt

    def warm_up(self):
        x = self.op_inputs(0)[0]
        self._check([(x, self._execute(x))])


def timed(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from untraced batches, as (value, samples), in
    host-scaled seconds (common.host_scaled); and the plain wall medians."""
    units = runner.wl.calib_units
    common.calibrate(1)  # untimed warm-up of the calibration loop
    times, cals = [], [common.calibrate(units)]
    deadline = time.perf_counter() + seconds
    k = 0
    while not times or time.perf_counter() < deadline:
        times.append(runner.batch(k))
        cals.append(common.calibrate(units))
        k += 1
    med = statistics.median(common.host_scaled(times, cals))
    ops = len(runner.op_inputs(0))
    # Each swept or certified value gets exactly one check_stability, so on
    # these workloads values and checks complete at the same rate.
    per_s = ops * runner.wl.values_per_op / med
    metrics = {
        "run_s": (med / ops, len(times)),
        "values_per_s": (per_s, len(times)),
        "checks_per_s": (per_s, len(times)),
    }
    wall = {
        "run_s": statistics.median(times) / ops,
        "calib_unit_s": statistics.median(cals),
    }
    return metrics, wall


def traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics, as (value, samples).

    A counting pass over batch 0, which the seed fixes, gives the counts, so
    they repeat exactly.  Then an untraced and a span-only pass over the same
    batch alternate until the time is up: the span-only passes give the
    layer times, the pairs give the tracing overhead.
    """
    tracer = Tracer()
    tracer.install(counters=True)
    try:
        tracer.begin_op(("setup", 0, 0))
        for _ in range(TRACE_SETUP_LOADS):
            ratelab.scenario.load_scenario(common.FIG2)
        tracer.end_op()
        runner.batch(0, tracer, "count")
    finally:
        tracer.uninstall()
    plain, with_trace = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while not plain or time.perf_counter() < deadline:
        plain.append(runner.batch(k))
        tracer.install(counters=False)
        try:
            with_trace.append(runner.batch(k, tracer, "timed"))
        finally:
            tracer.uninstall()
        k += 1
    tracer.write(spans_path)
    if tracer.missing:
        print(f"trace: not found in the program: {', '.join(sorted(tracer.missing))}",
              file=sys.stderr)

    self_ms = tracer.self_ms_by_op()
    ops = sorted(op for op in self_ms if op[0] == "timed")
    counts = tracer.op_counts[("count", 0, 0)]
    metrics = {}
    for name in SELF_MS_METRICS:
        metrics[name] = (statistics.median(self_ms[op][name] for op in ops), len(ops))
    # Per call rather than per operation: certify-b loads only at set-up.
    load_calls = tracer.span_ms("scenario.load_scenario")
    metrics["scenario.load_ms"] = (statistics.median(load_calls), len(load_calls))
    for name in COUNT_METRICS:
        metrics[name] = (counts[name], 1)
    per_step = [
        1e3 * self_ms[op]["dde.integrate_ms"] / tracer.op_counts[op]["dde.steps"]
        for op in ops if tracer.op_counts[op]["dde.steps"]
    ]
    metrics["dde.us_per_step"] = (
        statistics.median(per_step) if per_step else 0.0, len(per_step)
    )
    metrics["trace.overhead_frac"] = (
        statistics.median(with_trace) / statistics.median(plain) - 1.0, len(plain)
    )
    # Share of each traced operation's wall time that the layer self times
    # cover; the rest is the benchmark's own glue around the call.
    accounted = [sum(self_ms[op].values()) / (1e3 * tracer.op_wall[op]) for op in ops]
    print(f"trace: layer self times cover {min(accounted):.4%} to {max(accounted):.4%} "
          f"of each of {len(ops)} traced operations' wall time", file=sys.stderr)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True, help="scratch directory for outputs")
    ap.add_argument("--spans", required=True, help="where a traced run writes spans")
    args = ap.parse_args()

    if not Path(ratelab.__file__).resolve().is_relative_to(common.SRC):
        raise SystemExit(f"ratelab imported from {ratelab.__file__}, not {common.SRC}")
    runner = Runner(args.workload, args.seed, Path(args.work))
    runner.warm_up()
    wall = {}
    if args.trace:
        metrics = traced(runner, args.seconds, Path(args.spans))
    else:
        metrics, wall = timed(runner, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (rss_mb, 1)
    if args.workload == "run-fig2":
        fig1_check(Path(args.work) / "fig1", runner)
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "wall": wall,
    }))
    return 0


def fig1_check(out: Path, runner: Runner) -> None:
    """One untimed fig1 run: its trajectory.csv is the other gated golden."""
    golden = common.load_goldens()["run_fig1"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = ratelab.cli.main(["run", str(common.FIG1), "--out", str(out)])
    ok = code == golden["exit_code"] and common.run_outputs_match(out, golden["files"])
    shutil.rmtree(out, ignore_errors=True)
    runner.attempted += 1
    runner.failed += not ok


if __name__ == "__main__":
    raise SystemExit(main())
