#!/usr/bin/env python3
"""ratelab benchmark: one command, three workloads, goldens-checked outputs.

    python3 bench/run.py --workload run-fig2 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
and nothing is installed.  Each run measures one workload in a fresh worker
interpreter (closed loop, one client, one process at a time), after one
untimed warm-up operation, and checks every operation against
bench/goldens.json after its timer stops.  Human-readable lines go first;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Workloads, and why each is here:

- ``run-fig2``: ``ratelab run scenarios/fig2.scenario --out <tmp>`` through
  ``ratelab.cli.main``, repeated.  The single-result path users take and the
  only workload that writes the trajectory CSV, Lyapunov CSV, report, SVG
  and config echo.  Its input is fixed, so the seed picks nothing.  One
  untimed fig1 run per run-fig2 run checks fig1's trajectory.csv as well.
- ``sweep-b``: ``ratelab sweep scenarios/fig2.scenario --param b`` at the
  CLI default (serial) over 4 values per call, drawn by the seed from the
  256-point grid over b in [0.05, 1.0].  Integration and Lyapunov sampling
  for many values with one shared step: a batched integrator shows here.
  The ``--jobs`` pool is left out: on a shared machine with few cores its
  gain measures free cores, not the program.
- ``certify-b``: the analysis-only path that ``ratelab check`` and the
  boundary bisection in scripts/certification_boundary.py take: ``apply_param``
  then ``check_stability`` over the fixed fig2 base-run envelope, for b
  drawn by the seed from a 1000-point grid, 50 checks per timed batch.  No
  integration at all: a margin change shows here and an integrator change
  must not.

The default seed is 4 because its first sweep-b call, the one the traced
counts come from, draws all three outcomes of the grid (certified,
uncertified-converged, undetermined); of seeds 0 to 29 only 4 and 6 do.

End-to-end metrics (tracing off), reported on every workload.  Times are
host-scaled (see common.host_scaled): each timed batch is divided by the
calibration loop timed just before and after it in the same process, and
multiplied by the loop's time on a quiet host.  A shared host's speed swings
up to 2x over minutes; the scaled times swing a few percent.  The plain
wall-clock median is printed on a ``host:`` line beside them.

- ``run_s``: median time of one operation: a ``ratelab run``, a
  ``ratelab sweep`` call, or one certification check (a 50-check batch
  divided by 50).
- ``values_per_s``: parameter values completed per second at the median
  batch time: 1 per run, 4 per sweep call, 1 per check.
- ``checks_per_s``: ``check_stability`` evaluations completed per second.
  Every run, swept value and certification check makes exactly one, so on
  these three workloads it equals ``values_per_s``.
- ``setup_s``: median over 12 fresh interpreters, half started before the
  worker and half after it, of the host-scaled time from start to ready:
  ``import ratelab`` plus ``load_scenario`` of fig2.
- ``peak_rss_mb``: peak resident memory of the worker interpreter.

Failed operations (raised, wrong exit code, or output not byte-identical to
the goldens) are ``failed`` out of ``attempted`` in the result; their ratio
is printed as fail_frac.  It is not a metric of its own because it is 0
when the program is right.

With ``--trace 1`` the run reports the per-layer metrics instead (see
bench/tracing.py).  One counting pass over the seed's first batch gives the
exact counts; then untraced and span-only passes over the same batches
alternate, giving the layer self times (medians per operation) and
``trace.overhead_frac``.  Spans are kept in memory and written at the end
to .bench_work/trace-<workload>-<seed>.jsonl.

Processes: the set-up probes and the worker run one at a time, all pinned
to one CPU, so a run never uses more than one core, whatever ``nproc`` is.
Self-checks of the benchmark itself: bench/selfcheck.py.  Goldens are
re-captured only on purpose, with bench/capture_goldens.py.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import common

# Set-up probes per run, half before the worker and half after it, so one
# busy moment of a shared machine cannot move all of them.
SETUP_PROBES = 12
# Calibration units between probes: about a fifth of a probe.
SETUP_CALIB_UNITS = 4
# Leaves room under the 180 s a run may take for set-up, warm-up and the
# operation that is in flight when the measuring time ends.
WORKER_TIMEOUT_S = 170.0

PROBE = (
    "import sys, ratelab; ratelab.load_scenario(sys.argv[1]); "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def fail(message: str, code: int = 2):
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(code)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(common.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def setup_seconds(env: dict, probes: int) -> list[float]:
    """Start-to-ready time of fresh interpreters, measured from outside and
    host-scaled by calibrations between the probes."""
    times, cals = [], [common.calibrate(SETUP_CALIB_UNITS)]
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", PROBE, str(common.FIG2)],
            stdout=subprocess.PIPE, env=env, text=True,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line != "ready\n":
                fail("set-up probe failed: could not import ratelab and load fig2")
        cals.append(common.calibrate(SETUP_CALIB_UNITS))
    return common.host_scaled(times, cals)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=common.WORKLOADS)
    ap.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    # One CPU for this process and every child: a set-up probe then runs on
    # the CPU whose speed the calibrations around it measured, and nothing
    # migrates between CPUs of unequal load mid-measurement.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    for needed in (common.SRC / "ratelab" / "__init__.py", common.FIG1, common.FIG2,
                   common.GOLDENS, common.ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            fail(f"{needed.relative_to(common.ROOT)} not found: run from a ratelab checkout")
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = child_env()
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup = setup_seconds(env, probes)
    common.WORK_ROOT.mkdir(exist_ok=True)
    work = common.WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = common.WORK_ROOT / f"trace-{args.workload}-{args.seed}.jsonl"
    cmd = [sys.executable, str(common.BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=env, text=True,
            timeout=WORKER_TIMEOUT_S - (time.perf_counter() - started),
        )
    except subprocess.TimeoutExpired:
        fail("worker did not finish in time")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    setup += setup_seconds(env, probes)
    wall = raw["wall"]
    if wall:
        print(f"host: calibration unit {wall['calib_unit_s']:.6g} s (reference "
              f"{common.CALIB_REF_S} s); wall-clock run_s {wall['run_s']:.6g} s")

    measured = dict(raw["metrics"])
    if setup:
        measured["setup_s"] = (statistics.median(setup), len(setup))
    if set(measured) != set(declared):
        fail(f"metrics {sorted(measured)} differ from BENCHMARK.json {sorted(declared)}", 3)

    attempted, failed = raw["attempted"], raw["failed"]
    for name, (value, samples) in measured.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name}: {shown} {declared[name]} (n={samples})")
    print(f"fail_frac: {failed}/{attempted} = {failed / attempted:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": declared[name]}
            for name, (value, _samples) in measured.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
