"""Inputs, goldens and output checks shared by the benchmark's scripts.

Nothing here imports ratelab, so the orchestrator (run.py) can use it
before it has confirmed that the checkout holds the program.
"""

import hashlib
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIG1 = ROOT / "scenarios" / "fig1.scenario"
FIG2 = ROOT / "scenarios" / "fig2.scenario"
GOLDENS = BENCH / "goldens.json"
# Scratch outputs and span files, inside the checkout and ignored by git.
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("run-fig2", "sweep-b", "certify-b")
DEFAULT_SEED = 4  # the reason is in run.py's docstring

RUN_FILES = (
    "trajectory.csv",
    "lyapunov.csv",
    "report.txt",
    "plot.svg",
    "config_echo.scenario",
)

# sweep-b draws from the 256-point grid scripts/certification_boundary.py
# would use over the same range; certify-b from a denser 1000-point one.
B_LO, B_HI = 0.05, 1.0
SWEEP_GRID_N = 256
CERTIFY_GRID_N = 1000
# Values per `ratelab sweep` call, and certification checks timed together.
VALUES_PER_SWEEP = 4
CHECKS_PER_BATCH = 50

# Host-speed scaling.  On a shared host a core's speed follows its
# neighbours' load, by up to 2x over minutes, and that moves the program and
# any other Python code in the same process alike.  So every timed stretch is
# bracketed by a fixed calibration loop, and a time is reported as
#     CALIB_REF_S * time / (mean of the calibrations just before and after)
# that is, in seconds on a host where one calibration unit takes CALIB_REF_S.
# The unit is the mix of the program's hot loops: float arithmetic on numpy
# scalars, numpy element reads and writes, float powers in a small function
# reading a frozen parameter record, and float formatting.
CALIB_REF_S = 0.005  # about a unit's time on a quiet 2-vCPU host
CALIB_ITERATIONS = 3000


@dataclass(frozen=True)
class _CalibParams:
    a: float = 1.5
    b: float = 0.4
    h: float = 0.7
    xs: float = 0.37005


def _calib_margin(x: float, p: _CalibParams) -> float:
    c = 0.3 + 0.5 * x
    lhs = (p.xs ** -p.a - x ** -p.a) / (x - p.xs)
    return lhs - p.h * (x ** (p.b + 1.0) * c ** -p.b) / (x - p.xs)


SWEEP_HEADER = (
    "param,value,status,step,x_star,min_margin,verdict,classification,"
    "final_error,message"
)


def b_grid(n: int) -> list[float]:
    return [B_LO + (B_HI - B_LO) * i / (n - 1) for i in range(n)]


def batch_indices(workload: str, seed: int, k: int) -> list[int]:
    """Grid indices of batch k: a seeded draw without repeats, in drawn order.

    Seeding by string is stable across interpreters and PYTHONHASHSEED, and
    keying on k keeps batch k the same however many batches ran before it.
    """
    rng = random.Random(f"{workload}/{seed}/{k}")
    if workload == "sweep-b":
        return rng.sample(range(SWEEP_GRID_N), VALUES_PER_SWEEP)
    if workload == "certify-b":
        return rng.sample(range(CERTIFY_GRID_N), CHECKS_PER_BATCH)
    return [0]  # run-fig2 has a single input, the shipped fig2 scenario


def calibration_unit() -> int:
    a = np.linspace(0.0, 1.0, 64)
    p = _CalibParams()
    acc = 0.0
    parts = []
    for i in range(CALIB_ITERATIONS):
        x = a[i & 63] + 0.5 * i
        y = x * x - 3.0 * x + 1.25
        a[(i + 1) & 63] = y * 1e-9
        acc += _calib_margin(0.1 + i * 1e-4, p)
        if i & 3 == 0:
            parts.append(f"{acc!r},{y!r}")
    return len("\n".join(parts))


def calibrate(units: int) -> float:
    """Seconds per calibration unit, measured now over `units` units."""
    t0 = time.perf_counter()
    for _ in range(units):
        calibration_unit()
    return (time.perf_counter() - t0) / units


def host_scaled(times: list[float], cals: list[float]) -> list[float]:
    """times[i] in reference seconds, by the calibrations cals[i] just before
    and cals[i + 1] just after it."""
    return [
        CALIB_REF_S * 2.0 * t / (before + after)
        for t, before, after in zip(times, cals, cals[1:])
    ]


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_outputs_match(out_dir: Path, golden_hashes: dict) -> bool:
    """True when every golden file exists in out_dir with the golden hash."""
    for name, digest in golden_hashes.items():
        path = out_dir / name
        if not path.is_file() or sha256_file(path) != digest:
            return False
    return True


def parse_sweep_row(row: str) -> dict:
    cells = row.split(",")
    return {
        "value": float(cells[1]),
        "status": cells[2],
        "verdict": cells[6],
        "classification": cells[7],
    }


def expected_sweep_report(param: str, golden_rows: list[str]) -> str:
    """sweep_report.txt as the golden rows imply it.

    An independent restatement of the summary rules in the program, so the
    report is checked against the goldens rather than against itself.
    """
    rows = [parse_sweep_row(r) for r in golden_rows]
    ok = [r for r in rows if r["status"] == "ok"]
    certified = [r["value"] for r in ok if r["verdict"] == "CertifiedStable"]
    uncertified = [r["value"] for r in ok if r["verdict"] != "CertifiedStable"]
    oscillating = [r["value"] for r in ok if r["classification"] == "Oscillating"]
    largest = max(certified) if certified else None
    smallest_osc = min(oscillating) if oscillating else None
    lines = [f"sweep parameter: {param}", f"values: {len(rows)}"]
    lines.append(f"largest_certified: {'none' if largest is None else f'{largest:g}'}")
    lines.append(
        f"smallest_oscillating: {'none' if smallest_osc is None else f'{smallest_osc:g}'}"
    )
    above = [v for v in uncertified if largest is not None and v > largest]
    if certified and above:
        lines.append(f"certified_boundary_bracket: ({largest:g}, {min(above):g})")
    if param == "b":
        seen_uncertified = False
        for r in sorted(ok, key=lambda r: r["value"]):
            if r["verdict"] != "CertifiedStable":
                seen_uncertified = True
            elif seen_uncertified:
                lines.append(
                    "warning: certification pattern is not monotone in the swept "
                    "value; flagging for review"
                )
                break
    n_err = len(rows) - len(ok)
    if n_err:
        lines.append(f"errors: {n_err} value(s) failed; see sweep rows")
    return "\n".join(lines) + "\n"


def sweep_outputs_match(out_dir: Path, golden_rows: list[str]) -> bool:
    try:
        csv_bytes = (out_dir / "sweep.csv").read_bytes()
        report_bytes = (out_dir / "sweep_report.txt").read_bytes()
    except OSError:
        return False
    return (
        csv_bytes == ("\n".join([SWEEP_HEADER, *golden_rows]) + "\n").encode("utf-8")
        and report_bytes == expected_sweep_report("b", golden_rows).encode("utf-8")
    )
