"""Command-line front end.

Subcommands:
  run    simulate a scenario file and emit trajectory/report/plot files
  check  analysis only (equilibrium, assumptions, stability margin)
  sweep  repeat the pipeline over a list of values for one parameter

Exit codes: 0 Converged, 10 Oscillating, 11 Saturated, 12 Undetermined;
``check`` exits 0 when certified and 13 when not; errors use 64+
(64 usage, 65 invalid config/data, 66 missing input, 70 runtime or I/O failure).
"""

import argparse
import sys

from .analysis import CERTIFIED, check_stability, solve_equilibrium
from .errors import (
    ConfigError,
    EquilibriumBracketError,
    IntegrationDivergedError,
    MarginOverflowError,
    RatelabError,
)
from .scenario import (
    EXIT_CODES,
    SWEEPABLE,
    apply_param,
    auto_margin_range,
    format_report,
    format_sweep_summary,
    load_scenario,
    run_scenario,
    sweep,
    write_outputs,
)

EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_SOFTWARE = 70
CHECK_NOT_CERTIFIED = 13


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error[usage]: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _value_list(text: str) -> list[float]:
    """A --values argument: comma- or space-separated numbers."""
    try:
        return [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from None


def _job_count(text: str) -> int:
    """A --jobs argument: a whole number of at least 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {text!r}")
    return n


def _out_dir(text: str) -> str:
    """An --out argument: a directory name, never empty."""
    if not text:
        raise argparse.ArgumentTypeError("must name a directory, got ''")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ratelab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a scenario and write outputs")
    run_p.add_argument("scenario", help="path to a .scenario file")
    run_p.add_argument("--out", type=_out_dir, default=None,
                       help="output directory (default out/<name>)")
    run_p.add_argument("--step", type=float, default=None, help="override the step")
    run_p.add_argument("--t-end", type=float, default=None, help="override the horizon")

    check_p = sub.add_parser("check", help="analysis only, no simulation")
    check_p.add_argument("scenario", help="path to a .scenario file")
    check_p.add_argument("--out", type=_out_dir, default=None,
                         help="also write report.txt here")

    sweep_p = sub.add_parser("sweep", help="run the pipeline over parameter values")
    sweep_p.add_argument("scenario", help="path to a .scenario file")
    sweep_p.add_argument("--param", required=True,
                         help=f"one of {', '.join(SWEEPABLE)}")
    sweep_p.add_argument("--values", required=True, type=_value_list,
                         help="comma- or space-separated list of values")
    sweep_p.add_argument("--out", type=_out_dir, default=None,
                         help="output directory (default out/sweep-<param>)")
    sweep_p.add_argument("--jobs", type=_job_count, default=1, help="parallel workers")
    sweep_p.add_argument("--step", type=float, default=None, help="override the step")
    sweep_p.add_argument("--t-end", type=float, default=None, help="override the horizon")

    return parser


def _load_with_overrides(path, step=None, t_end=None):
    cfg = load_scenario(path)
    if t_end is not None:
        cfg = apply_param(cfg, "t_end", t_end)
    if step is not None:
        cfg = apply_param(cfg, "step", step)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_with_overrides(args.scenario, args.step, args.t_end)
    res = run_scenario(cfg, out_dir=args.out)
    sys.stdout.write(format_report(cfg, res.report, res.classification))
    print(f"outputs: {res.paths['trajectory']}")
    return EXIT_CODES[res.classification.kind]


def _cmd_check(args) -> int:
    cfg = load_scenario(args.scenario)
    eq = solve_equilibrium(cfg.params, cfg.law)
    x_range = cfg.margin_range or auto_margin_range(cfg, None, eq.x_star)
    report = check_stability(cfg.params, cfg.law, x_range, cfg.grid_n)
    text = format_report(cfg, report)
    sys.stdout.write(text)
    if args.out is not None:
        write_outputs(args.out, {"report.txt": text})
    return 0 if report.verdict == CERTIFIED else CHECK_NOT_CERTIFIED


def _cmd_sweep(args) -> int:
    cfg = _load_with_overrides(args.scenario, args.step, args.t_end)
    rep = sweep(cfg, args.param, args.values, out_dir=args.out, n_jobs=args.jobs)
    sys.stdout.write(format_sweep_summary(rep))
    for r in rep.rows:
        if r.status == "ok":
            print(
                f"  {r.param}={r.value:g}: verdict={r.verdict} "
                f"classification={r.classification} min_margin={r.min_margin:.4g}"
            )
        else:
            print(f"  {r.param}={r.value:g}: error: {r.message}")
    print(f"outputs: {rep.paths['sweep']}")
    return 0 if all(r.status == "ok" for r in rep.rows) else EX_SOFTWARE


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_sweep(args)
    except FileNotFoundError as exc:
        print(f"error[input]: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except (ConfigError, EquilibriumBracketError, MarginOverflowError) as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return EX_DATAERR
    except IntegrationDivergedError as exc:
        print(f"error[diverged]: {exc}", file=sys.stderr)
        return EX_SOFTWARE
    except RatelabError as exc:
        print(f"error[runtime]: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
