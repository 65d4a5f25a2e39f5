#!/usr/bin/env python3
"""Capture the benchmark's goldens from the program as it is now.

Writes bench/goldens.json: sha256 of the five fig2 `run` outputs and of
fig1's trajectory.csv with each run's exit code, the sweep.csv row of every
sweep-b candidate, and the verdict and min_margin (repr) of every certify-b
candidate together with the fixed margin range.  Run it only on purpose,
from the root of a checkout whose outputs are the reference:

    PYTHONPATH=src python3 bench/capture_goldens.py
"""

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import common

import ratelab.analysis
import ratelab.cli
import ratelab.scenario


def cli_quiet(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return ratelab.cli.main(argv)


def capture_run(scenario: Path, out: Path, files) -> dict:
    code = cli_quiet(["run", str(scenario), "--out", str(out)])
    return {"exit_code": code, "files": {f: common.sha256_file(out / f) for f in files}}


def main() -> int:
    if not Path(ratelab.__file__).resolve().is_relative_to(common.SRC):
        raise SystemExit(f"ratelab imported from {ratelab.__file__}, not {common.SRC}")
    common.WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="goldens-", dir=common.WORK_ROOT))
    try:
        goldens = {
            "run_fig2": capture_run(common.FIG2, work / "fig2", common.RUN_FILES),
            "run_fig1": capture_run(common.FIG1, work / "fig1", ("trajectory.csv",)),
        }

        grid = common.b_grid(common.SWEEP_GRID_N)
        code = cli_quiet(["sweep", str(common.FIG2), "--param", "b",
                          "--values", ",".join(map(repr, grid)), "--out", str(work / "sweep")])
        lines = (work / "sweep" / "sweep.csv").read_text(encoding="utf-8").splitlines()
        if code != 0 or lines[0] != common.SWEEP_HEADER or len(lines) != len(grid) + 1:
            raise SystemExit(f"full-grid sweep failed (exit {code})")
        goldens["sweep_b"] = {"rows": lines[1:]}

        cfg = ratelab.scenario.load_scenario(common.FIG2)
        base = ratelab.scenario.run_scenario(cfg, out_dir=work / "base")
        x_range = ratelab.scenario.auto_margin_range(
            cfg, base.trajectory, base.report.equilibrium.x_star
        )
        results = []
        for b in common.b_grid(common.CERTIFY_GRID_N):
            cfg_b = ratelab.scenario.apply_param(cfg, "b", b)
            rep = ratelab.analysis.check_stability(cfg_b.params, cfg_b.law, x_range, cfg.grid_n)
            results.append([repr(b), rep.verdict, repr(rep.min_margin)])
        goldens["certify_b"] = {"x_range": [repr(v) for v in x_range], "results": results}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(common.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
    verdicts = [r.split(",")[6] + "/" + r.split(",")[7] for r in goldens["sweep_b"]["rows"]]
    mix = {v: verdicts.count(v) for v in sorted(set(verdicts))}
    certified = sum(r[1] == ratelab.analysis.CERTIFIED for r in results)
    print(f"wrote {common.GOLDENS}")
    print(f"sweep-b grid verdict/classification mix: {mix}")
    print(f"certify-b grid: {certified} of {len(results)} certified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
