"""The mutation ledger: one-token changes to ``src/ratelab`` that tier-1
must catch, each with the tests that kill it or an argument that it is
equivalent to the code it replaces.

    python tests/mutants.py          # every row
    python tests/mutants.py 0 3      # rows 0 and 3

Each row is applied to a fresh copy of ``src/``, ``tests/``, ``scenarios/``,
``scripts/`` and ``pyproject.toml`` in a temporary directory (its replaced
text must occur exactly once), and only the row's tests run there.  A
killing row must fail them; an equivalent row must pass them, so its
argument is checked by the tests that would show a difference.  Before the
rows, the unchanged copy must pass every test the rows name.  The last line
counts the rows run, killed, equivalent and not as stated, with the wall
time; the exit status is 1 if any row does not read as stated.  Standard library only;
pytest does not collect this file (it is not named ``test_*.py``).

Mend a surviving mutant with a test; never drop a row without a stated
equivalence argument.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scenarios", "scripts", "pyproject.toml")


class Mutant(NamedTuple):
    """``old`` replaced by ``new`` in ``file`` (under ``src/ratelab``).  ``tests``
    are pytest node ids; ``equivalent`` is empty for a mutant they must kill,
    and otherwise the reason it cannot change a result, which they must pass."""

    file: str
    old: str
    new: str
    tests: tuple
    equivalent: str = ""


CLASSIFY_ORACLE = "tests/test_analysis.py::test_classify_matches_plain_loop_oracle"
BAND_EDGES = "tests/test_analysis.py::TestTheorem2Margin::test_band_edges_match_the_oracle"
FLOAT_RANGE = "tests/test_model.py::test_an_int_past_the_float_range_is_refused_as_inf_is"
WRONG_TYPE = "tests/test_scenario.py::TestSweep::test_a_value_of_the_wrong_type_is_a_config_error"
GRID_BOUNDS = "tests/test_scenario.py::TestGridBounds::"

LEDGER = (
    Mutant("analysis.py", "elif not f_lo > 0.0 > f_hi:", "elif f_lo * f_hi > 0.0:",
           ("tests/test_analysis.py::TestSolveEquilibrium::test_tiny_ends_of_one_sign_are_no_bracket",
            "tests/test_analysis.py::test_solve_equilibrium_matches_bisection_oracle",
            "tests/test_cli.py::test_tiny_residual_of_one_sign_exits_65")),
    Mutant("config.py", "if not is_number(value):", "if False:",
           (WRONG_TYPE,)),
    Mutant("analysis.py", "tail_pp >= 0.9 * mid_pp", "tail_pp > 0.9 * mid_pp",
           (CLASSIFY_ORACLE,)),
    Mutant("analysis.py", "final_error < tol_conv and", "final_error <= tol_conv and",
           (CLASSIFY_ORACLE,)),
    Mutant("analysis.py", "tail = x[t >= traj.t_end - window]",
           "tail = x[t > traj.t_end - window]", (CLASSIFY_ORACLE,)),
    Mutant("analysis.py", "t[idx_last_outside + 1]", "t[idx_last_outside]",
           (CLASSIFY_ORACLE, "tests/test_scenario.py::test_run_report_lines")),
    Mutant("dde.py", "if x_min < x_stage < x_max:\n                f = h * xd_tau4",
           "if c0 - slope_g * xd_t4 > 0.0 and x_min < x_stage < x_max:\n"
           "                f = h * xd_tau4",
           ("tests/test_dde.py::TestFusedStepMatchesReference",
            "tests/test_dde.py::test_loop_matches_reference_on_random_inputs"),
           equivalent="the grid read's capacity is g at a recorded rate, and every recorded "
                      "rate has g(x) > 0: the slope at t = 0 checks g(init_x), an interior "
                      "record lies below x_hi, the least float with g <= 0, and a projected "
                      "record passes capacity(); so the test is always true"),
    # the margin's band: a rate on its edge takes the quotient, and the
    # oracle states its own EPS_BAND_REL
    Mutant("analysis.py", "neg_band < (d := x - xs) < band", "neg_band < (d := x - xs) <= band",
           (BAND_EDGES,)),
    Mutant("analysis.py", "if neg_band < d < band:", "if neg_band < d <= band:", (BAND_EDGES,)),
    Mutant("analysis.py", "EPS_BAND_REL = 1e-6", "EPS_BAND_REL = 2e-6", (BAND_EDGES,)),
    Mutant("analysis.py", "margins[i_min] > 0 and", "margins[i_min] >= 0 and",
           ("tests/test_analysis.py::TestCheckTheorem2::"
            "test_a_zero_minimum_margin_is_not_certified",)),
    Mutant("dde.py", "GRID_SNAP = 1e-12", "GRID_SNAP = 1e-11",
           ("tests/test_dde.py::TestInterpX::test_snap_width_is_grid_snap_per_node",)),
    Mutant("config.py", "if h < step / 1000.0:", "if h <= step / 1000.0:",
           ("tests/test_scenario.py::TestSnapStep::"
            "test_refinement_reaches_a_thousandth_of_the_step",)),
    Mutant("scenario.py", "span > 1e-9 * hi", "span >= 1e-9 * hi",
           ("tests/test_scenario.py::TestAutoMarginRange::"
            "test_span_at_the_degenerate_threshold_pads_by_the_top",)),
    # the float range, one row per site that tests it against model.FLOAT_MAX
    Mutant("model.py", "v is not True and 0 < v <= FLOAT_MAX",
           "v is not True and 0 < v <= 2.0 * FLOAT_MAX",
           (f"{FLOAT_RANGE}[ModelParams constants-2**1024]",)),
    Mutant("model.py", "p.x_max <= FLOAT_MAX", "p.x_max <= 2.0 * FLOAT_MAX",
           (f"{FLOAT_RANGE}[ModelParams x_max-2**1024]",)),
    Mutant("model.py", "0 < law.c0 <= FLOAT_MAX", "0 < law.c0 <= 2.0 * FLOAT_MAX",
           (f"{FLOAT_RANGE}[CapacityLaw c0-2**1024]",)),
    Mutant("model.py", "0 <= law.slope <= FLOAT_MAX", "0 <= law.slope <= 2.0 * FLOAT_MAX",
           (f"{FLOAT_RANGE}[CapacityLaw slope-2**1024]",)),
    Mutant("config.py", "if not 0 < step <= FLOAT_MAX:", "if not 0 < step <= 2.0 * FLOAT_MAX:",
           (f"{FLOAT_RANGE}[snap_step step-2**1024]",)),
    Mutant("config.py", "-FLOAT_MAX <= value <= FLOAT_MAX",
           "-FLOAT_MAX <= value <= 2.0 * FLOAT_MAX",
           (WRONG_TYPE, f"{FLOAT_RANGE}[config number key-2**1024]")),
    Mutant("dde.py", "0 < t_end <= FLOAT_MAX", "0 < t_end <= 2.0 * FLOAT_MAX",
           (f"{FLOAT_RANGE}[integrate t_end-2**1024]",)),
    Mutant("dde.py", "0 < step <= FLOAT_MAX", "0 < step <= 2.0 * FLOAT_MAX",
           (f"{FLOAT_RANGE}[integrate step-2**1024]",)),
    Mutant("dde.py", "0 < init_x <= FLOAT_MAX", "0 < init_x <= 2.0 * FLOAT_MAX",
           (f"{FLOAT_RANGE}[integrate init_x-2**1024]",)),
    # a config error's location: a record's refusal, and only it, reads invalid
    Mutant("config.py", '"" if isinstance(exc, ConfigError) else "invalid: "',
           '"invalid: " if isinstance(exc, ConfigError) else ""',
           (WRONG_TYPE, "tests/test_scenario.py::TestLoadScenario::"
                        "test_delay_ordering_rejected_citing_a1")),
    Mutant("config.py", 'ConfigError(f"invalid: unknown capacity law kind',
           'ConfigError(f"unknown capacity law kind',
           ("tests/test_scenario.py::TestLoadScenario::test_percent_sign_read_literally",)),
    # the margin range: the config's when it gives one, else the run's auto range
    Mutant("scenario.py", "cfg.margin_range or auto_margin_range(", "auto_margin_range(",
           ("tests/test_cli.py::test_check_certified_with_explicit_range",)),
    Mutant("scenario.py", "margin_report(cfg, eq, traj)", "margin_report(cfg, eq)",
           ("tests/test_scenario.py::test_run_report_lines",)),
    # the step grid and the analysis grid: each bound accepts the value on its edge
    Mutant("config.py", "if window < step:", "if window <= step:",
           (GRID_BOUNDS + "test_a_tail_window_of_exactly_one_step_is_accepted",)),
    Mutant("config.py", 'if not 0 < v["tail_fraction"] <= 0.5:',
           'if not 0 < v["tail_fraction"] < 0.5:',
           (GRID_BOUNDS + "test_a_tail_fraction_of_one_half_is_accepted",)),
    Mutant("config.py", "16 <= grid_n", "16 < grid_n",
           (GRID_BOUNDS + "test_a_grid_of_16_nodes_is_accepted",)),
    Mutant("config.py", 'if v["t_end"] / step > MAX_STEPS:', 'if v["t_end"] / step >= MAX_STEPS:',
           (GRID_BOUNDS + "test_exactly_max_steps_of_run_is_accepted",)),
    Mutant("config.py", "if tau / step > MAX_STEPS:", "if tau / step >= MAX_STEPS:",
           (GRID_BOUNDS + "test_exactly_max_steps_of_pre_history_is_accepted",)),
    Mutant("config.py", 'if not v["t_end"] > 0:', 'if not v["t_end"] >= 0:',
           (GRID_BOUNDS + "test_a_zero_t_end_is_not_positive",)),
    Mutant("config.py", "if whole_steps(t_delay, h) > 0:", "if whole_steps(t_delay, h) != 0:",
           ("tests/test_scenario.py::TestSnapStep::test_a_negative_delay_is_whole_in_no_step",)),
    # a nonpositive capacity: at the start of a run, and at the equilibrium
    Mutant("config.py", 'if not law.value(v["init_x"]) > 0:',
           'if not law.value(v["init_x"]) >= 0:',
           ("tests/test_scenario.py::TestLoadScenario::"
            "test_init_x_reaching_capacity_root_rejected[5-0.0]",)),
    Mutant("analysis.py", "if not c_star > 0.0:", "if not c_star >= 0.0:",
           ("tests/test_cli.py::test_equilibrium_on_capacity_root_is_config_error[check]",)),
)


def _copy() -> Path:
    root = Path(tempfile.mkdtemp(prefix="ratelab-mutant-"))
    for name in COPIED:
        src = REPO / name
        if src.is_dir():
            shutil.copytree(src, root / name,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis"))
        else:
            shutil.copy2(src, root / name)
    return root


def _pytest(root: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
    ).returncode


def run(rows) -> tuple[list[str], list[str]]:
    """Run the ledger's ``rows`` (indices); return one line per problem and
    the outcome of each row that ran."""
    problems, outcomes = [], []
    root = _copy()
    try:
        named = sorted({t for i in rows for t in LEDGER[i].tests})
        if _pytest(root, named) != 0:
            return ["the unchanged copy fails the named tests: " + " ".join(named)], []
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for i in rows:
        m = LEDGER[i]
        start = time.perf_counter()
        root = _copy()
        try:
            path = root / "src" / "ratelab" / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                problems.append(f"row {i}: {m.old!r} occurs {text.count(m.old)} times in {m.file}")
                continue
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            code = _pytest(root, m.tests)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        expected = 0 if m.equivalent else 1
        outcome = {0: "survived", 1: "killed"}.get(code, f"pytest exit {code}")
        outcomes.append("equivalent" if code == expected == 0 else outcome)
        print(f"row {i}: {m.file}: {m.old.splitlines()[0]!r} -> {m.new.splitlines()[0]!r}: "
              f"{outcome} ({time.perf_counter() - start:.1f} s)"
              + (" [equivalent]" if m.equivalent else ""), flush=True)
        if code != expected:
            problems.append(f"row {i}: {outcome}, expected "
                            + ("to survive (equivalent)" if m.equivalent else "to be killed"))
    return problems, outcomes


def main(argv) -> int:
    rows = [int(a) for a in argv] or range(len(LEDGER))
    start = time.perf_counter()
    problems, outcomes = run(rows)
    for line in problems:
        print(line, file=sys.stderr)
    print(f"ledger: {len(outcomes)} rows run, {outcomes.count('killed')} killed, "
          f"{outcomes.count('equivalent')} equivalent, {len(problems)} not as stated, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
