#!/usr/bin/env python3
"""Locate the certification boundary in the price exponent b.

Sweeps b on the stable benchmark base, prints one line per value, and then
bisects the certified/uncertified boundary down to --tol using the margin
check alone (no simulation needed: the margin at the equilibrium decides).
"""

import argparse
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from ratelab import CERTIFIED, load_scenario, sweep  # noqa: E402
from ratelab.analysis import check_stability  # noqa: E402
from ratelab.scenario import apply_param  # noqa: E402


def certified_at(cfg, b: float, x_range) -> bool:
    cfg_b = apply_param(cfg, "b", b)
    return check_stability(cfg_b.params, cfg_b.law, x_range, cfg.grid_n).verdict == CERTIFIED


def at_least(minimum: int):
    """An argument type: a whole number of at least ``minimum``."""
    def whole_number(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {n}")
        return n
    return whole_number


def bisection_width(text: str) -> float:
    """A --tol argument: a positive finite number."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return tol


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lo", type=float, default=0.05)
    parser.add_argument("--hi", type=float, default=1.0)
    parser.add_argument("--n", type=at_least(2), default=20,
                        help="sweep points (at least 2: the sweep spans lo to hi)")
    parser.add_argument("--tol", type=bisection_width, default=1e-4,
                        help="boundary bisection width (positive)")
    parser.add_argument("--out", default="out/boundary", help="sweep output directory")
    parser.add_argument("--jobs", type=at_least(1), default=1, help="parallel workers")
    args = parser.parse_args()

    cfg = load_scenario(REPO / "scenarios" / "fig2.scenario")
    values = [args.lo + (args.hi - args.lo) * i / (args.n - 1) for i in range(args.n)]
    rep = sweep(cfg, "b", values, out_dir=args.out, n_jobs=args.jobs)
    for r in rep.rows:
        if r.status == "ok":
            print(f"b={r.value:.4f}  verdict={r.verdict:>14}  "
                  f"classification={r.classification:>12}  min_margin={r.min_margin:+.4f}")
        else:
            print(f"b={r.value:.4f}  error: {r.message}")

    if rep.certified_boundary is None:
        print("no certified/uncertified bracket in the swept range")
        return 1

    # refine with the margin check over a fixed range anchored at the sweep
    # bracket; use the base-case envelope so the range does not move with b
    lo, hi = rep.certified_boundary
    from ratelab.scenario import _execute

    x_range = _execute(cfg).report.x_range  # the padded envelope: fig2 has margin_range = auto
    while hi - lo > args.tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # lo and hi are adjacent floats: a finer --tol cannot be met
        if certified_at(cfg, mid, x_range):
            lo = mid
        else:
            hi = mid
    print(f"\ncertification boundary in b: ({lo:.5f}, {hi:.5f}) over x-range "
          f"[{x_range[0]:.4f}, {x_range[1]:.4f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
