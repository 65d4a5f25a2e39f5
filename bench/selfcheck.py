#!/usr/bin/env python3
"""Checks of the benchmark itself, run from the root of a checkout:

    python3 bench/selfcheck.py

1. One flipped byte in any checked output, or a changed certification
   result, counts as a failed operation.
2. The same seed draws the same candidates in the same order; another seed
   draws others.
3. Per-layer counts repeat exactly across two traced runs of each workload.
4. The metric names a run prints are the ones BENCHMARK.json records.
5. On run-fig2 the layer self times account for at least 99% of each traced
   operation's wall time.

Exits 0 when every check holds.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import common

sys.path.insert(0, str(common.SRC))
import worker  # noqa: E402  (imports ratelab from the checkout)

SHORT_SECONDS = "1"
failures = []


def expect(cond: bool, what: str):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def flipped(path: Path, at: int):
    data = bytearray(path.read_bytes())
    data[at % len(data)] ^= 0x01
    path.write_bytes(bytes(data))


def detects_flips(out: Path, files, matches) -> bool:
    """matches() holds on out as written, and fails after any one-byte flip."""
    if not matches():
        return False
    for name in files:
        path = out / name
        original = path.read_bytes()
        flipped(path, len(original) // 2)
        caught = not matches()
        path.write_bytes(original)
        if not caught:
            return False
    return True


def check_flips(work: Path, goldens: dict):
    run = worker.RunFig2(work, goldens)
    expect(run.execute(0) == 0 and detects_flips(
        run.out, common.RUN_FILES,
        lambda: common.run_outputs_match(run.out, goldens["run_fig2"]["files"]),
    ), "run-fig2: a flipped byte in any of the five outputs is detected")

    sweep = worker.SweepB(work, goldens)
    indices = common.batch_indices("sweep-b", common.DEFAULT_SEED, 0)[:2]
    rows = [sweep.rows[i] for i in indices]
    expect(sweep.execute(indices) == 0 and detects_flips(
        sweep.out, ("sweep.csv", "sweep_report.txt"),
        lambda: common.sweep_outputs_match(sweep.out, rows),
    ), "sweep-b: a flipped byte in sweep.csv or sweep_report.txt is detected")

    cert = worker.CertifyB(work, goldens)
    verdict, margin = cert.execute(7)
    expect(
        cert.check(7, (verdict, margin))
        and not cert.check(7, (verdict, repr(float(margin) * (1 + 1e-15))))
        and not cert.check(7, ("Other", margin)),
        "certify-b: a changed min_margin or verdict is detected",
    )


def check_seeds():
    for wl in ("sweep-b", "certify-b"):
        a = [common.batch_indices(wl, 11, k) for k in range(3)]
        b = [common.batch_indices(wl, 11, k) for k in range(3)]
        c = [common.batch_indices(wl, 12, k) for k in range(3)]
        expect(a == b and a != c, f"{wl}: same seed, same draws; other seed, other draws")


def bench_run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(common.BENCH / "run.py"), "--workload", workload,
         "--seed", str(common.DEFAULT_SEED), "--seconds", SHORT_SECONDS,
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=common.ROOT, timeout=180,
    )
    if proc.returncode != 0:
        return None, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def check_runs():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    counted = {n for n, unit in layers.items() if unit in ("count", "bytes")}
    for wl in common.WORKLOADS:
        res, _ = bench_run(wl, 0)
        expect(res is not None and res["correct"] and set(res["metrics"]) == e2e,
               f"{wl}: untraced run is correct and prints the end_to_end names")
        traced = [bench_run(wl, 1) for _ in range(2)]
        ok = all(r is not None and r["correct"] and set(r["metrics"]) == set(layers)
                 for r, _ in traced)
        expect(ok, f"{wl}: traced runs are correct and print the per_layer names")
        if ok:
            first, second = ({n: r["metrics"][n]["value"] for n in counted} for r, _ in traced)
            expect(first == second, f"{wl}: per-layer counts repeat exactly")
        if wl == "run-fig2" and ok:
            cover = re.search(r"cover ([\d.]+)% to", traced[0][1])
            expect(cover is not None and float(cover.group(1)) >= 99.0,
                   "run-fig2: layer self times account for the traced wall time")


def main() -> int:
    goldens = common.load_goldens()
    common.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=common.WORK_ROOT))
    try:
        check_flips(work, goldens)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_seeds()
    check_runs()
    print(f"{len(failures)} self-check(s) failed" if failures else "all self-checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
