#!/usr/bin/env python3
"""Locate the certification boundary in the price exponent b.

b is certified when the margin check of fig2 with that b passes over one
rate range: the base fig2 run's margin range, resolved by the rule that
`ratelab run` uses.  The script prints the margin check at --n evenly spaced
values of b, brackets the boundary between the largest certified value and
the smallest uncertified value above it, and bisects that bracket down to
--tol with the same check.  Only the base run is integrated.
"""

import argparse
import math
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from ratelab import CERTIFIED, RatelabError, load_scenario  # noqa: E402
from ratelab.analysis import check_stability  # noqa: E402
from ratelab.config import apply_param  # noqa: E402
from ratelab.scenario import _execute  # noqa: E402


def margin_check(cfg, b: float, x_range):
    """The margin check of ``cfg`` with price exponent ``b`` over ``x_range``."""
    cfg_b = apply_param(cfg, "b", b)
    return check_stability(cfg_b.params, cfg_b.law, x_range, cfg.grid_n)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lo", type=float, default=0.05)
    parser.add_argument("--hi", type=float, default=1.0)
    parser.add_argument("--n", type=int, default=20,
                        help="grid points (at least 2: the grid spans lo to hi)")
    parser.add_argument("--tol", type=float, default=1e-4,
                        help="boundary bisection width (positive)")
    args = parser.parse_args()
    if args.n < 2:
        parser.error(f"argument --n: must be at least 2, got {args.n}")
    if not (math.isfinite(args.tol) and args.tol > 0):
        parser.error(f"argument --tol: must be a positive finite number, got {args.tol}")

    cfg = load_scenario(REPO / "scenarios" / "fig2.scenario")
    x_range = _execute(cfg).report.x_range  # the range `ratelab run` resolves

    checked = []  # (b, certified) for each grid value that the model accepts
    for i in range(args.n):
        b = args.lo + (args.hi - args.lo) * i / (args.n - 1)
        try:
            rep = margin_check(cfg, b, x_range)
        except RatelabError as exc:
            print(f"b={b:.4f}  error: {exc}")
            continue
        checked.append((b, rep.verdict == CERTIFIED))
        print(f"b={b:.4f}  verdict={rep.verdict:>14}  min_margin={rep.min_margin:+.4f}")

    lo = max((b for b, ok in checked if ok), default=math.inf)
    hi = min((b for b, ok in checked if not ok and b > lo), default=None)
    if hi is None:
        print("no certified/uncertified bracket in the swept range")
        return 1
    # the bracket alone stops it: at --tol, or when lo and hi are adjacent floats
    while hi - lo > args.tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if margin_check(cfg, mid, x_range).verdict == CERTIFIED:
            lo = mid
        else:
            hi = mid
    print(f"\ncertification boundary in b: ({lo:.5f}, {hi:.5f}) over x-range "
          f"[{x_range[0]:.4f}, {x_range[1]:.4f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
