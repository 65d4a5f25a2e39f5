import atexit
import csv
import importlib
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ratelab
import ratelab.cli
import ratelab.errors
from ratelab import config, scenario
from ratelab.cli import main
from conftest import SCENARIOS, SRC, run_cli

DOCUMENTED_EXIT_CODES = {0, 10, 11, 12, 13, 64, 65, 66, 70}

# fig2 started at init_x = 4.5, near the capacity root x = 5: a file, so the
# argv fuzzer can name it in an example; removed when the session exits
_SCRATCH = tempfile.mkdtemp(prefix="ratelab-test-cli-")
atexit.register(shutil.rmtree, _SCRATCH, True)
FIG2_INIT_4_5 = Path(_SCRATCH) / "fig2-init-4.5.scenario"
FIG2_INIT_4_5.write_text(
    (SCENARIOS / "fig2.scenario").read_text().replace("init_x = 1.0", "init_x = 4.5"),
    encoding="utf-8",
)
# fig2 with a tail window of 1e-6 * 99.99 s, far below the 0.01 step
FIG2_SHORT_TAIL = Path(_SCRATCH) / "fig2-short-tail.scenario"
FIG2_SHORT_TAIL.write_text(
    (SCENARIOS / "fig2.scenario").read_text().replace("t_end = 200.0", "t_end = 99.99")
    + "tail_fraction = 1e-6\n",
    encoding="utf-8",
)


@pytest.mark.parametrize("name, equilibrium, verdict", [
    ("fig1", "x_star=1.367154041 c_star=3.632845959", "NotCertified"),
    ("fig2", "x_star=1.105944895 c_star=3.894055105", "CertifiedStable"),
], ids=["fig1", "fig2"])
def test_run_subcommand(tmp_path, capsys, name, equilibrium, verdict):
    # the figures: each shipped scenario over its full horizon
    out = tmp_path / name
    code = main(["run", str(SCENARIOS / f"{name}.scenario"), "--out", str(out)])
    assert code == 0
    report = capsys.readouterr().out
    assert f"\nequilibrium: {equilibrium} residual=" in report
    assert f"\nverdict: {verdict}\n" in report
    assert "\nclassification: Converged\n" in report
    assert sorted(p.name for p in out.iterdir()) == [
        "config_echo.scenario", "lyapunov.csv", "plot.svg", "report.txt", "trajectory.csv"]


def test_run_exit_code_tracks_classification(fig2_path, tmp_path):
    # too-short horizon gives the Undetermined guard path and exit 12
    code = main(["run", str(fig2_path), "--out", str(tmp_path / "u"), "--t-end", "5"])
    assert code == 12


@pytest.mark.parametrize("kappa, code, lines", [
    ("1e-5", 12, ["classification: Undetermined"]),
    ("1e-18", 11, ["classification: Saturated", "tail_peak_to_peak: 0"]),
], ids=["drifts-off", "held"])
def test_run_from_the_ceiling(fig2_path, tmp_path, capsys, kappa, code, lines):
    # fig2 started on x_max = 2.  At kappa = 1e-5 the rate leaves the bound at
    # once and drifts toward x* = 1.106, staying within tol_conv of 2 over the
    # tail: Undetermined.  At kappa = 1e-18 no step moves it off 2.0 in
    # floating point, the one way a run of the model ends Saturated.
    text = (fig2_path.read_text().replace("kappa = 1.0", f"kappa = {kappa}")
            .replace("T = 2.0", "T = 2.0\nx_max = 2").replace("init_x = 1.0", "init_x = 2"))
    path = tmp_path / "ceiling.scenario"
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == code
    out = capsys.readouterr().out
    for line in lines:
        assert f"\n{line}\n" in out


def test_check_with_auto_range_uses_wide_band(fig2_path, capsys):
    # without a trajectory the auto range is a factor-of-two band around the
    # equilibrium, which reaches outside the certified zone even for b = 0.2
    code = main(["check", str(fig2_path)])
    assert code == 13
    assert "verdict: NotCertified" in capsys.readouterr().out


def test_check_certified_with_explicit_range(fig2_path, tmp_path, capsys):
    text = fig2_path.read_text().replace("margin_range = auto", "margin_range = 0.95 1.2")
    path = tmp_path / "narrow.scenario"
    path.write_text(text, encoding="utf-8")
    code = main(["check", str(path)])
    assert code == 0
    assert "verdict: CertifiedStable" in capsys.readouterr().out


# fig2 edits, and the exit code and output lines of `check` on the result
CHECK_EDITS = {
    "margin-range-three-numbers": (
        {"margin_range = auto": "margin_range = 1 2 3"}, 65,
        ["[analysis] key 'margin_range': expected 'auto' or two numbers, got '1 2 3'"]),
    "tol-conv-0": ({"grid_n = 256": "grid_n = 256\ntol_conv = 0"}, 65,
                   ["[analysis] tolerances must be positive"]),
    "tol-osc-minus-1": ({"grid_n = 256": "grid_n = 256\ntol_osc = -1"}, 65,
                        ["[analysis] tolerances must be positive"]),
    "tail-fraction-0.6": ({"grid_n = 256": "grid_n = 256\ntail_fraction = 0.6"}, 65,
                          ["[analysis] tail_fraction must be in (0, 0.5], got 0.6"]),
    "constant-law": ({"kind = affine\nintercept = 5.0\nslope = 1.0":
                      "kind = constant\nlevel = 4.0"}, 13,
                     ["capacity: g(x) = 4 (constant)",
                      "assumption_violation: [A3/warning] capacity slope must satisfy "
                      "g'(x) < -1, got g'(x) = 0"]),
    # a capacity key that the file's law does not use is refused, not dropped
    "constant-law-with-affine-keys": ({"kind = affine": "kind = constant\nlevel = 4.0"}, 65,
                                      ["[capacity] key 'intercept' is not used by a constant law"]),
    "affine-law-with-level": ({"slope = 1.0": "slope = 1.0\nlevel = 9.0"}, 65,
                              ["[capacity] key 'level' is not used by an affine law"]),
    "affine-30-2": ({"intercept = 5.0": "intercept = 30.0", "slope = 1.0": "slope = 2.0"}, 13,
                    ["capacity: g(x) = 30 - 2*x", "assumption_violation: none"]),
    # configparser copies [DEFAULT] keys into every section: refused whole
    "default-section": ({"[model]": "[DEFAULT]\nt_end = 30\n\n[model]"}, 65,
                        ["unknown section [DEFAULT]"]),
    # a bracket wider than 2**200 stop widths: the bisection still ends at fig2's root
    "x-max-1e60": ({"T = 2.0": "T = 2.0\nx_max = 1e60"}, 13,
                   ["equilibrium: x_star=1.105944895 c_star=3.894055105 residual=6.843e-16"]),
}


@pytest.mark.parametrize("case", CHECK_EDITS)
def test_check_of_an_edited_fig2(fig2_path, tmp_path, capsys, case):
    edits, code, lines = CHECK_EDITS[case]
    text = fig2_path.read_text()
    for old, new in edits.items():
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    path = tmp_path / "edited.scenario"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == code
    out, err = capsys.readouterr()
    if code == 65:
        assert err == f"error[config]: {path}: {lines[0]}\n"
    else:
        assert set(lines) <= set(out.splitlines())


def test_run_of_fig2_with_x_max_1e60_converges(fig2_path, tmp_path, capsys):
    # check's x-max-1e60 edit: the run converges on fig2's trajectory
    path = tmp_path / "edited.scenario"
    path.write_text(fig2_path.read_text().replace("\nT = 2.0\n", "\nT = 2.0\nx_max = 1e60\n"),
                    encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "wide")]) == 0
    assert "\nclassification: Converged\n" in capsys.readouterr().out
    assert main(["run", str(fig2_path), "--out", str(tmp_path / "fig2")]) == 0
    assert ((tmp_path / "wide" / "trajectory.csv").read_bytes()
            == (tmp_path / "fig2" / "trajectory.csv").read_bytes())


def test_check_not_certified(fig1_path, capsys):
    code = main(["check", str(fig1_path)])
    assert code == 13
    assert "verdict: NotCertified" in capsys.readouterr().out


def test_check_writes_report(fig2_path, tmp_path):
    main(["check", str(fig2_path), "--out", str(tmp_path / "rep")])
    assert (tmp_path / "rep" / "report.txt").is_file()


def test_sweep_subcommand(fig2_path, tmp_path, capsys):
    code = main(
        [
            "sweep",
            str(fig2_path),
            "--param",
            "b",
            "--values",
            "0.15,0.45",
            "--out",
            str(tmp_path / "sw"),
            "--t-end",
            "60",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "largest_certified" in out
    assert (tmp_path / "sw" / "sweep.csv").is_file()


def test_sweep_with_error_value_signals_failure(fig2_path, tmp_path):
    code = main(
        [
            "sweep",
            str(fig2_path),
            "--param",
            "b",
            "--values",
            "0.2,-1",
            "--out",
            str(tmp_path / "swe"),
            "--t-end",
            "60",
        ]
    )
    assert code == 65  # b = -1 is a data error, as under `run`


def test_check_small_b_has_no_traceback(fig2_path, tmp_path):
    # b = 0.01 makes x_max**((a+b+1)/b) overflow inside the equilibrium solve
    path = tmp_path / "small_b.scenario"
    path.write_text(fig2_path.read_text().replace("b = 0.2", "b = 0.01"), encoding="utf-8")
    proc = run_cli("check", path)
    assert proc.returncode in DOCUMENTED_EXIT_CODES
    assert "Traceback" not in proc.stderr
    assert "equilibrium: x_star=1.00553282" in proc.stdout


def test_check_overflowing_h_factor_exits_65(fig2_path, tmp_path):
    # h**(1/b) = 1e4**100 is beyond the float range, though an equilibrium exists
    path = tmp_path / "big_h.scenario"
    text = fig2_path.read_text().replace("\nb = 0.2\n", "\nb = 0.01\nh = 1e4\n")
    path.write_text(text, encoding="utf-8")
    proc = run_cli("check", path)
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr
    assert "h**(1/b) exceeds the float range (h = 10000.0, b = 0.01)" in proc.stderr



@pytest.mark.parametrize("tau, t_end, code, first, last", [
    ("3.0000000001", "40", 0, 4.0, 40.0),  # the longest delay just above a whole second
    ("2.9999999997", "5", 12, 3.0, 4.0),  # the run's end, 500 steps, just below one
])
def test_lyapunov_rows_lie_in_the_recorded_run(fig2_path, tmp_path, tau, t_end, code,
                                               first, last):
    # V is sampled at the whole seconds that lyapunov_values accepts, with its
    # slack of a fraction of the step, so a valid scenario never exits 70 on them
    path = tmp_path / "tau.scenario"
    path.write_text(fig2_path.read_text().replace("\ntau = 3.0\n", f"\ntau = {tau}\n"),
                    encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(path), "--t-end", t_end, "--out", str(out)]) == code
    with open(out / "lyapunov.csv", newline="", encoding="utf-8") as f:
        ts = [float(row["t"]) for row in csv.DictReader(f)]
    assert (ts[0], ts[-1]) == (first, last)
    assert all(float(tau) <= t <= float(t_end) for t in ts)

CAPACITY_ROOT_MODEL = """\
[model]
kappa = 1.0
a = 1.0
b = 0.1
h = 0.01
tau = 3.0
T = 2.0
x_min = 0.1
x_max = 10.0

[capacity]
kind = affine
intercept = 1.0
slope = 1.0

[run]
init_x = 0.5
t_end = 20.0
"""


@pytest.mark.parametrize("command", ["run", "check", "sweep"])
def test_equilibrium_on_capacity_root_is_config_error(tmp_path, command):
    # h**(1/b) * x**((a+b+1)/b) = 1e-20 at x = 1: the residual's root rounds
    # onto g's root, so g(x_star) = 0 and no equilibrium capacity exists
    path = tmp_path / "capacity_root.scenario"
    path.write_text(CAPACITY_ROOT_MODEL, encoding="utf-8")
    out = tmp_path / "o"
    sweep_args = ["--param", "kappa", "--values", "1"] if command == "sweep" else []
    proc = run_cli(command, path, *sweep_args, "--out", out)
    assert "Traceback" not in proc.stderr
    message = "the equilibrium rounds onto the capacity root: g(x_star) = 0.0 <= 0 at x_star = 1.0"
    if command == "sweep":  # the row reports it, and the sweep exits with its code
        assert proc.returncode == 65
        assert (out / "sweep.csv").read_text().splitlines()[1].endswith(message)
    else:
        assert proc.returncode == 65
        assert f"error[config]: {message}" in proc.stderr
        assert not out.exists()


def test_sweep_isolates_non_ratelab_errors(fig2_path, tmp_path, monkeypatch, capsys):
    real = scenario._execute

    def flaky(cfg):
        if cfg.params.b == 0.01:
            raise OverflowError("(34, 'Numerical result out of range')")
        return real(cfg)

    monkeypatch.setattr(scenario, "_execute", flaky)
    out = tmp_path / "iso"
    code = main(["sweep", str(fig2_path), "--param", "b", "--values", "0.01,0.2",
                 "--out", str(out), "--t-end", "60"])
    assert code == 70
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].startswith("b,0.01,error,")
    assert rows[0].endswith(",OverflowError: (34; 'Numerical result out of range')")
    assert rows[1].startswith("b,0.20000000000000001,ok,")
    assert "Traceback" not in capsys.readouterr().err


# What `ratelab` prints and exits with for each error type of the package,
# written out here so that a change to the mapping shows as a test change
ERROR_TABLE = {
    "RatelabError": ("runtime", 70),
    "ModelDomainError": ("runtime", 70),
    "IntegrationDivergedError": ("diverged", 70),
    "ConfigError": ("config", 65),
}


@pytest.mark.parametrize("name", sorted(ERROR_TABLE))
def test_each_error_type_sets_its_tag_and_exit_code(fig2_path, monkeypatch, capsys, name):
    cls = getattr(ratelab.errors, name)
    exc = cls("boom", 0.0) if cls is ratelab.errors.IntegrationDivergedError else cls("boom")

    def load_fails(path):
        raise exc

    monkeypatch.setattr(ratelab.cli, "load_scenario", load_fails)
    tag, code = ERROR_TABLE[name]
    assert main(["check", str(fig2_path)]) == code
    assert capsys.readouterr().err == f"error[{tag}]: boom\n"


def test_error_table_covers_every_error_type():
    errors = ratelab.errors
    types = {n for n, v in vars(errors).items()
             if isinstance(v, type) and issubclass(v, errors.RatelabError)}
    assert types == set(ERROR_TABLE)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("param, values, code", [
    ("b", "0.2,-1,0.3", 65),  # a data error, as `run` with b = -1 exits
    ("kappa", "1e300", 70),  # integration left the model domain at t = 0.005
    ("kappa", "1e300,-1", 70),  # the larger of 70 and 65
])
def test_sweep_exits_with_the_largest_code_of_its_failures(fig2_path, tmp_path, capsys,
                                                           jobs, param, values, code):
    out = tmp_path / "sw"
    assert main(["sweep", str(fig2_path), "--param", param, "--values", values,
                 "--t-end", "10", "--jobs", jobs, "--out", str(out)]) == code
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == len(values.split(","))
    assert capsys.readouterr().err == ""


def test_sweep_small_b_completes(fig2_path, tmp_path):
    proc = run_cli("sweep", fig2_path, "--param", "b", "--values", "0.01,0.2",
                   "--out", tmp_path / "small_b", "--t-end", "60")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert len((tmp_path / "small_b" / "sweep.csv").read_text().splitlines()) == 3


def test_non_finite_t_end_is_config_error(fig2_path, tmp_path):
    path = tmp_path / "inf.scenario"
    text = fig2_path.read_text().replace("t_end = 200.0", "t_end = inf")
    path.write_text(text, encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 65
    assert main(["run", str(fig2_path), "--t-end", "inf", "--out", str(tmp_path / "o")]) == 65


def test_tiny_residual_of_one_sign_exits_65(tmp_path):
    # the equilibrium residual is 1e-200 at both rate bounds: no bracket,
    # where a product of the two (0.0) bisected it and run and check failed later
    path = tmp_path / "tiny.scenario"
    path.write_text("[model]\nkappa = 1\na = 1\nb = 1\ntau = 1\nT = 1\nx_min = 1e-120\n"
                    "x_max = 2e-120\n[capacity]\nkind = constant\nlevel = 1e-200\n"
                    "[run]\ninit_x = 1.5e-120\nt_end = 20\nstep = 0.01\n", encoding="utf-8")
    message = ("error[config]: no sign change of the equilibrium residual on [1e-120, 2e-120] "
               "(f(1e-120) = 1e-200, f(2e-120) = 1e-200)\n")
    for argv in (["run", path, "--out", tmp_path / "o"], ["check", path]):
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stderr) == (65, message)
    assert not (tmp_path / "o").exists()


def test_step_ceiling_exits_65(fig2_path, tmp_path):
    out = tmp_path / "o"
    # 1.75e308 / step overflows to inf, which the ceiling refuses before rounding
    for t_end in ("1e9", "1.75e308"):
        assert main(["run", str(fig2_path), "--t-end", t_end, "--out", str(out)]) == 65
        assert main(["sweep", str(fig2_path), "--param", "b", "--values", "0.2",
                     "--t-end", t_end, "--out", str(out)]) == 65
        path = tmp_path / "long.scenario"
        path.write_text(fig2_path.read_text().replace("t_end = 200.0", f"t_end = {t_end}"),
                        encoding="utf-8")
        assert main(["check", str(path), "--out", str(out)]) == 65
        assert main(["run", str(path), "--out", str(out)]) == 65
    assert not out.exists()


def test_non_numeric_grid_n_exits_65(fig2_path, tmp_path):
    path = tmp_path / "abc.scenario"
    text = fig2_path.read_text().replace("grid_n = 256", "grid_n = abc")
    path.write_text(text, encoding="utf-8")
    proc = run_cli("check", path)
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr


def test_grid_n_ceiling_exits_65(fig2_path, tmp_path):
    path = tmp_path / "huge_grid.scenario"
    text = fig2_path.read_text().replace("grid_n = 256", "grid_n = 1e12")
    path.write_text(text, encoding="utf-8")
    proc = run_cli("check", path)
    assert proc.returncode == 65
    assert "grid_n" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_fractional_grid_n_exits_65(fig2_path, tmp_path):
    path = tmp_path / "fractional_grid.scenario"
    text = fig2_path.read_text().replace("grid_n = 256", "grid_n = 100.5")
    path.write_text(text, encoding="utf-8")
    proc = run_cli("check", path)
    assert proc.returncode == 65
    assert "error[config]" in proc.stderr
    assert "got 100.5" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sweep_non_numeric_values_is_usage_error(fig2_path, tmp_path):
    out = tmp_path / "o"
    proc = run_cli("sweep", fig2_path, "--param", "b", "--values", "abc", "--out", out)
    assert proc.returncode == 64
    assert "error[usage]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_sweep_jobs_below_one_is_usage_error(fig2_path, tmp_path, jobs):
    out = tmp_path / "o"
    proc = run_cli("sweep", fig2_path, "--param", "b", "--values", "0.2", "--jobs", jobs,
                   "--out", out)
    assert proc.returncode == 64
    assert "argument --jobs" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_sweep_of_slope_turns_a_constant_law_affine(fig2_path, tmp_path, capsys):
    path = tmp_path / "constant.scenario"
    text = fig2_path.read_text().replace("\nkind = affine\nintercept = 5.0\nslope = 1.0\n",
                                         "\nkind = constant\nlevel = 4.0\n")
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    code = main(["sweep", str(path), "--param", "slope", "--values", "0.5,1", "--t-end", "60",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["value"], r["status"]) for r in rows] == [("0.5", "ok"), ("1", "ok")]


def test_non_utf8_scenario_is_config_error(fig2_path, tmp_path):
    path = tmp_path / "latin1.scenario"
    path.write_bytes(b"# caf\xe9\n" + fig2_path.read_bytes())
    proc = run_cli("check", path)
    assert proc.returncode == 65
    assert "parse error" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_byte_order_mark_checks_like_fig2(fig2_path, tmp_path):
    path = tmp_path / "bom.scenario"
    path.write_bytes(b"\xef\xbb\xbf" + fig2_path.read_bytes())
    proc = run_cli("check", path)
    assert proc.returncode == 13
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [("run", "--t-end", "30"), ("check",),
     ("sweep", "--t-end", "30", "--param", "b", "--values", "0.2")],
    ids=["run", "check", "sweep"],
)
def test_out_naming_a_file_is_io_error(fig2_path, tmp_path, args):
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    proc = run_cli(args[0], fig2_path, "--out", out, *args[1:])
    assert proc.returncode == 70
    assert "error[io]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert out.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize(
    "args",
    [("run", "--t-end", "30"), ("check",),
     ("sweep", "--t-end", "30", "--param", "b", "--values", "0.2")],
    ids=["run", "check", "sweep"],
)
def test_empty_out_is_usage_error(fig2_path, tmp_path, monkeypatch, capsys, args):
    # an empty --out names no directory: refused, not read as "here" or the default
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc_info:
        main([args[0], str(fig2_path), "--out", "", *args[1:]])
    assert exc_info.value.code == 64
    assert "error[usage]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_import_loads_no_process_pool():
    # a sweep with --jobs above 1 imports the pool; nothing else pays for it
    probe = (
        "import sys, ratelab; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    assert proc.stdout.strip() == "[]"


def _numpy_loaded_after(script, *argv):
    """Run ``script`` in a fresh interpreter and report what it printed
    before the last line, and whether numpy ended up in ``sys.modules``."""
    probe = script + "\nprint('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe, *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    *out, last = proc.stdout.splitlines()
    return out, last == "True"


def test_import_and_load_leave_numpy_unloaded(fig2_path):
    script = "import sys, ratelab\nprint(ratelab.load_scenario(sys.argv[1]).name)"
    assert _numpy_loaded_after(script, fig2_path) == (["fig2"], False)


def test_import_and_load_leave_the_pipeline_and_dataclasses_unloaded(fig2_path):
    # the records are NamedTuples, and the package resolves the pipeline's
    # names on first use; count only what ratelab adds to the modules the
    # interpreter (and any site hook) had already loaded
    unloaded = {"dataclasses", "inspect", "ratelab.analysis", "ratelab.dde",
                "ratelab.scenario", "ratelab.svgplot"}
    probe = (
        "import sys\nbefore = set(sys.modules)\nimport ratelab\n"
        "ratelab.load_scenario(sys.argv[1])\n"
        f"print(sorted({unloaded!r} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(fig2_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_check_stability_leaves_the_integrator_unloaded():
    # analysis names Trajectory only in annotations, so the margin check
    # loads neither the integrator nor the pipeline
    unloaded = {"ratelab.dde", "ratelab.scenario", "ratelab.svgplot"}
    probe = (
        "import sys\nbefore = set(sys.modules)\nfrom ratelab import check_stability\n"
        f"print(sorted({unloaded!r} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    assert proc.stdout.strip() == "[]"


# The package's public names, each with the module that defines it, pinned
# so that the lazily resolved namespace cannot drift from them.
PUBLIC_NAMES = {
    **dict.fromkeys(["CERTIFIED", "CONVERGED", "NOT_CERTIFIED", "OSCILLATING", "SATURATED",
                     "UNDETERMINED", "check_stability", "classify", "lyapunov_values",
                     "solve_equilibrium"], "analysis"),
    **dict.fromkeys(["load_scenario", "snap_step"], "config"),
    **dict.fromkeys(["Trajectory", "integrate"], "dde"),
    **dict.fromkeys(["ConfigError", "IntegrationDivergedError", "ModelDomainError",
                     "RatelabError"], "errors"),
    **dict.fromkeys(["CapacityLaw", "ModelParams", "capacity"], "model"),
    **dict.fromkeys(["run_scenario", "sweep"], "scenario"),
}


def test_lazy_namespace_is_the_public_namespace():
    star = {}
    exec("from ratelab import *", star)
    assert set(star) - {"__builtins__"} == set(PUBLIC_NAMES)
    for name, module in PUBLIC_NAMES.items():
        assert getattr(ratelab, name) is getattr(importlib.import_module(f"ratelab.{module}"), name)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        ratelab.nope
    assert not hasattr(ratelab, "nope")


@pytest.mark.parametrize(
    "argv, code",
    [(["check", "{fig2}"], 13),
     (["check", "{fig2}", "--out", "{tmp}/report"], 13),
     (["sweep", "{fig2}", "--param", "b", "--values", "abc"], 64),
     (["run", "{tmp}/missing.scenario"], 66)],
    ids=["check", "check-out", "usage-error", "missing-scenario"],
)
def test_check_and_error_exits_leave_numpy_unloaded(fig2_path, tmp_path, argv, code):
    # the margin check is pure Python: only a trajectory needs numpy
    script = (
        "import sys\nfrom ratelab.cli import main\n"
        "try:\n    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n    code = exc.code\n"
        "print(code)"
    )
    argv = [a.format(fig2=fig2_path, tmp=tmp_path) for a in argv]
    out, numpy_loaded = _numpy_loaded_after(script, *argv)
    assert (out[-1], numpy_loaded) == (str(code), False)
    if "--out" in argv:
        assert (tmp_path / "report" / "report.txt").is_file()


def test_plot_from_lists_leaves_numpy_unloaded(tmp_path):
    script = (
        "import sys\nfrom ratelab.svgplot import line_plot_svg\n"
        "line_plot_svg(sys.argv[1], [0.0, 1.0, 2.0], [('x', [1.0, 3.0, 2.0])], 't', 'u', 'v')\n"
        "print(open(sys.argv[1]).read().count('<polyline'))"
    )
    assert _numpy_loaded_after(script, tmp_path / "p.svg") == (["1"], False)


def test_check_unwritable_report_is_io_error(fig2_path, tmp_path):
    (tmp_path / "report.txt").mkdir()
    proc = run_cli("check", fig2_path, "--out", tmp_path)
    assert proc.returncode == 70
    assert "error[io]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_near_capacity_root_converges(tmp_path):
    # the run's envelope padded by 20% reaches x = 5.01, past g's root at 5:
    # the auto range stops at 0.95*c0/slope = 4.75 instead
    out = tmp_path / "o"
    proc = run_cli("run", FIG2_INIT_4_5, "--out", out)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert "classification: Converged" in proc.stdout
    assert "margin_range: [0.001, 4.75]" in proc.stdout
    assert (out / "trajectory.csv").is_file()


def _fig2_past_the_cap(fig2_path, tmp_path, extra_model_lines=""):
    # b = 1, h = 6e-4: x_star = 4.849 lies past 0.95*c0/slope = 4.75, and so
    # does the envelope [4.8396, 4.86] of a 60 s run from init_x = 4.86
    text = fig2_path.read_text()
    for old, new in {"b = 0.2": "b = 1.0", "T = 2.0": f"T = 2.0\nh = 6e-4{extra_model_lines}",
                     "init_x = 1.0": "init_x = 4.86", "t_end = 200.0": "t_end = 60"}.items():
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    path = tmp_path / "past-cap.scenario"
    path.write_text(text, encoding="utf-8")
    return path


def test_auto_range_fallback_stops_below_capacity_root(fig2_path, tmp_path):
    # the padded envelope clamped at 4.75 is empty; the fallback x_star*[0.9, 1.1]
    # is clamped the same way instead of reaching g's root at 5
    proc = run_cli("run", _fig2_past_the_cap(fig2_path, tmp_path), "--out", tmp_path / "o")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "margin_range: [4.364394029, 4.75]" in proc.stdout


@pytest.mark.parametrize("command", ["check", "run"])
def test_empty_auto_range_is_config_error(fig2_path, tmp_path, command):
    # x_min = 4.8 above the 4.75 cap: no auto range exists, not even the fallback
    path = _fig2_past_the_cap(fig2_path, tmp_path, "\nx_min = 4.8")
    proc = run_cli(command, path, "--out", tmp_path / "o")
    assert proc.returncode == 65
    assert proc.stderr.startswith("error[config]: margin_range = auto leaves no rate range")
    assert "[4.8, 4.75]" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("hi", ["5", "6"])
def test_margin_range_at_capacity_root_is_config_error(fig2_path, tmp_path, command, hi):
    # g(x) = 5 - x: a margin range up to x = 5 or past it is refused at load
    path = tmp_path / "root.scenario"
    path.write_text(fig2_path.read_text().replace("margin_range = auto",
                                                  f"margin_range = 1 {hi}"), encoding="utf-8")
    proc = run_cli(command, path, "--out", tmp_path / "o")
    assert proc.returncode == 65
    assert "error[config]" in proc.stderr
    assert "reaches the capacity root" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("init_x, g", [("5.0", "0.0"), ("6.0", "-1.0")])
def test_init_x_at_capacity_root_is_config_error(fig2_path, tmp_path, command, init_x, g):
    # g(x) = 5 - x: a run that starts at x = 5 or past it is refused at load
    path = tmp_path / "root.scenario"
    path.write_text(fig2_path.read_text().replace("init_x = 1.0", f"init_x = {init_x}"),
                    encoding="utf-8")
    proc = run_cli(command, path, "--out", tmp_path / "o")
    assert proc.returncode == 65
    assert proc.stderr == (f"error[config]: {path}: [run] init_x = {init_x} reaches the capacity "
                           f"root: g({init_x}) = {g} <= 0\n")
    assert not (tmp_path / "o").exists()


def test_sweep_value_that_moves_the_root_below_init_x_is_config_error(fig2_path, tmp_path,
                                                                      capsys):
    out = tmp_path / "o"
    code = main(["sweep", str(fig2_path), "--param", "intercept", "--values", "0.5,5",
                 "--t-end", "30", "--out", str(out)])
    assert code == 65
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert rows[0] == ("intercept,0.5,error,,,,,,,intercept = 0.5: [run] init_x = 1.0 reaches "
                       "the capacity root: g(1.0) = -0.5 <= 0")
    assert rows[1].startswith("intercept,5,ok,")
    assert "Traceback" not in capsys.readouterr().err


def test_margin_overflow_is_config_error(fig2_path, tmp_path):
    # b = 50: c**-b overflows at the range's top, where g(x) = 1e-7; the
    # message names x by repr, since .6g would print 4.9999999 as 5
    path = tmp_path / "b50.scenario"
    text = fig2_path.read_text().replace("\nb = 0.2\n", "\nb = 50\n")
    path.write_text(text.replace("margin_range = auto", "margin_range = 1 4.9999999"),
                    encoding="utf-8")
    proc = run_cli("check", path)
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        "error[config]: margin at x = 4.9999999 exceeds the float range (a = 1.5, b = 50.0)"
    )


# fig2 variants where fixed-step RK4 fails while the rate falls towards the
# stiff zone; the message explains, the exit code stays.  Two cases record a
# rate past the capacity root 5 (x = 96.98 at t = 0.1, x = 36.73 at t = 0.6):
# the run fails at that step, not when a later stage or delayed read meets it.
STIFF_CASES = {
    "kappa5-b0.8-init3.9": ({"kappa = 1.0": "kappa = 5.0", "b = 0.2": "b = 0.8",
                             "init_x = 1.0": "init_x = 3.9"},
                            "0.1", "capacity law returned c = -91.98", 0.182237),
    "b0.9-init4.5": ({"b = 0.2": "b = 0.9", "init_x = 1.0": "init_x = 4.5"},
                     "0.15", "rhs requires x_now > 0", 0.0728826),
    "tau60-T10-init4.9-step0.05": ({"tau = 3.0": "tau = 60.0", "T = 2.0": "T = 10.0",
                                    "init_x = 1.0": "init_x = 4.9", "step = 0.01": "step = 0.05"},
                                   "0.6", "capacity law returned c = -31.73", 0.181446),
}


@pytest.mark.parametrize("case", sorted(STIFF_CASES))
def test_rk4_stiffness_failure_names_the_step_bound(fig2_path, tmp_path, case):
    edits, t_fail, cause, x_low = STIFF_CASES[case]
    text = fig2_path.read_text()
    for old, new in edits.items():
        text = text.replace(f"\n{old}\n", f"\n{new}\n")
    path = tmp_path / f"{case}.scenario"
    path.write_text(text, encoding="utf-8")
    proc = run_cli("run", path, "--out", tmp_path / "o")
    assert proc.returncode == 70
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(
        f"error[diverged]: integration left the model domain at t = {t_fail}: {cause}"
    )
    cfg = config.load_scenario(path)
    kappa, a = cfg.params.kappa, cfg.params.a
    x_bound = (kappa * a * cfg.step / 2.785) ** (1 / (a + 1))
    h_max = 2.785 * x_low ** (a + 1) / (kappa * a)
    assert x_low < x_bound
    assert f"; rate {x_low:.6g} is below the RK4 stiffness bound " in proc.stderr
    assert f"(kappa*a*step/2.785)**(1/(a+1)) = {x_bound:.6g}" in proc.stderr
    named = float(proc.stderr.split("stable at that rate is ")[1])
    assert named == pytest.approx(h_max, rel=1e-5)
    # the named step runs the same scenario to its classification
    rerun = run_cli("run", path, "--step", named, "--t-end", 40, "--out", tmp_path / "o")
    assert rerun.returncode in (0, 10, 11, 12), rerun.stderr


def test_overflow_is_named_as_an_overflow(fig2_path, tmp_path):
    # init_x**-a overflows at t = 0, and the stable step 2.785*x**(a+1)/(kappa*a)
    # underflows: neither CPython's errno text nor a step of 0 reaches the user
    path = tmp_path / "a300.scenario"
    path.write_text(fig2_path.read_text().replace("\na = 1.5\n", "\na = 300\n")
                    .replace("\ninit_x = 1.0\n", "\ninit_x = 0.05\n"), encoding="utf-8")
    proc = run_cli("run", path, "--out", tmp_path / "o")
    assert proc.returncode == 70
    assert proc.stderr.startswith(
        "error[diverged]: the step's arithmetic exceeds the float range at t = 0; rate 0.05 "
    )
    assert proc.stderr.rstrip().endswith("no positive float step is stable at that rate")
    assert "(34," not in proc.stderr and "is 0" not in proc.stderr


def test_t_end_below_one_step_is_config_error(fig2_path, tmp_path):
    # 0.004 / 0.01 rounds to 0 steps: refused at load, before integrate
    out = tmp_path / "o"
    proc = run_cli("run", fig2_path, "--t-end", "0.004", "--out", out)
    assert proc.returncode == 65
    assert "error[config]" in proc.stderr
    assert "shorter than one step" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    path = tmp_path / "short.scenario"
    path.write_text(fig2_path.read_text().replace("t_end = 200.0", "t_end = 0.004"),
                    encoding="utf-8")
    assert main(["check", str(path), "--out", str(out)]) == 65
    assert main(["sweep", str(fig2_path), "--param", "b", "--values", "0.2",
                 "--t-end", "0.004", "--out", str(out)]) == 65
    assert not out.exists()


def test_step_and_t_end_overrides_are_checked_together(fig2_path, tmp_path, capsys):
    # 0.04 s is 40 steps of 0.001 with a tail window of 8: valid together,
    # though t_end = 0.04 alone leaves a window shorter than the file's 0.01
    out = tmp_path / "o"
    assert main(["run", str(fig2_path), "--t-end", "0.04", "--step", "0.001",
                 "--out", str(out)]) == 12  # Undetermined: 0.04 < 10 tau
    assert "\nstep = 0.001\n" in (out / "config_echo.scenario").read_text()
    assert main(["sweep", str(fig2_path), "--param", "b", "--values", "0.2", "--t-end",
                 "0.04", "--step", "0.001", "--out", str(tmp_path / "sw")]) == 0
    assert "\nb,0.20000000000000001,ok,0.001," in (tmp_path / "sw" / "sweep.csv").read_text()
    # 2e5 steps of 1 are under MAX_STEPS, though 2e5 / 0.01 is not
    assert config.apply_params(config.load_scenario(fig2_path),
                               {"t_end": 2e5, "step": 1.0}).step == 1.0
    capsys.readouterr()
    # a refusal names both overrides
    assert main(["run", str(fig2_path), "--t-end", "0.004", "--step", "0.01",
                 "--out", str(tmp_path / "short")]) == 65
    assert capsys.readouterr().err == ("error[config]: t_end = 0.004, step = 0.01: "
                                       "[run] t_end = 0.004 shorter than one step 0.01\n")
    assert not (tmp_path / "short").exists()


def test_tail_window_below_one_step_is_config_error(fig2_path, tmp_path):
    # classify's mid-run window would fall between two samples: refused at load
    out = tmp_path / "o"
    proc = run_cli("run", FIG2_SHORT_TAIL, "--out", out)
    assert proc.returncode == 65
    assert proc.stderr.startswith(f"error[config]: {FIG2_SHORT_TAIL}: [analysis] "
                                  "tail_fraction = 1e-06 leaves a window of 9.999e-05 "
                                  "over the 99.99 horizon, shorter than one step 0.01")
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    # T = 2.001 snaps the step to 0.001, which the base's 0.005 s window
    # spans; swept to T = 2.0 the step is 0.01 and the value is refused
    path = tmp_path / "t2001.scenario"
    text = fig2_path.read_text().replace("\nT = 2.0\n", "\nT = 2.001\n")
    path.write_text(text.replace("t_end = 200.0", "t_end = 100.0") + "tail_fraction = 5e-5\n",
                    encoding="utf-8")
    proc = run_cli("sweep", path, "--param", "T", "--values", "2.0", "--out", out)
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr
    assert (out / "sweep.csv").read_text().splitlines()[1].endswith(
        ",T = 2.0: [analysis] tail_fraction = 5e-05 leaves a window of 0.005 "
        "over the 100 horizon; shorter than one step 0.01")


def test_missing_scenario_file(tmp_path):
    assert main(["run", str(tmp_path / "nope.scenario")]) == 66


def test_invalid_config(tmp_path):
    bad = tmp_path / "bad.scenario"
    bad.write_text("[model]\nkappa = -1\n", encoding="utf-8")
    assert main(["run", str(bad)]) == 65


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc_info:
        main([])
    assert exc_info.value.code == 64


def test_step_override_snaps(fig2_path, tmp_path, capsys):
    code = main(
        ["run", str(fig2_path), "--out", str(tmp_path / "s"), "--step", "0.015", "--t-end", "40"]
    )
    assert code in (0, 12)
    out = capsys.readouterr().out
    assert "requested 0.015" in out
    # 3/201 is the largest divisor of both delays not above 0.015
    echo = (tmp_path / "s" / "config_echo.scenario").read_text()
    assert f"step = {3.0 / 201.0:.17g}" in echo


def _exit_code(argv):
    """cli.main's exit code, whether returned or raised by the argument parser."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# Each token runs in well under 0.2 s or is refused before anything is
# allocated; --jobs comes only with counts that are refused, so no worker
# process is started.
PARAMS = ("b", "tau", "T", "zzz")
VALUES = ("abc", ",", "nan", "0.2", "1e400", "0.2,0.4")
ARGV_OPTIONS = (
    ("--t-end", "5"), ("--t-end", "0"), ("--t-end", "-1"), ("--t-end", "nan"),
    ("--t-end", "1e9"), ("--t-end", "abc"),
    ("--step", "0.02"), ("--step", "0.5"), ("--step", "0"), ("--step", "-0.1"),
    ("--step", "abc"), ("--param", "b"), ("--values", "abc"),
    ("--t-end",), ("--bogus",), ("extra",),
    ("--jobs", "0"), ("--jobs", "-1"), ("--jobs", "abc"),
)


@st.composite
def cli_argvs(draw):
    """A subcommand, a scenario path and a few options; a sweep usually gets
    its two required options."""
    command = draw(st.sampled_from(("run", "check", "sweep", "sweep", "nope")))
    name = draw(st.sampled_from(("fig1.scenario", "fig2.scenario", "missing.scenario", "")))
    argv = [command, str(SCENARIOS / name)]
    if command == "sweep" and draw(st.integers(0, 4)):
        argv += ["--param", draw(st.sampled_from(PARAMS)),
                 "--values", draw(st.sampled_from(VALUES))]
    for option in draw(st.lists(st.sampled_from(ARGV_OPTIONS), max_size=3)):
        argv += option
    return argv


@settings(max_examples=50, deadline=None)
@given(argv=cli_argvs())
@example(argv=["sweep", str(SCENARIOS / "fig2.scenario"), "--param", "b", "--values", "abc"])
@example(argv=["run", str(FIG2_INIT_4_5)])
@example(argv=["run", str(SCENARIOS / "fig2.scenario"), "--t-end", "0.004"])
@example(argv=["run", str(FIG2_SHORT_TAIL)])
def test_fuzzed_argv_exits_with_documented_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        assert _exit_code(argv + ["--out", tmp]) in DOCUMENTED_EXIT_CODES


FIG2_LINES = (SCENARIOS / "fig2.scenario").read_text(encoding="utf-8").splitlines()
VALUE_TOKENS = ("", "abc", "nan", "inf", "-1", "0", "0.2", "1", "16", "1e12", "1.75e308",
                "1e400", "auto", "0.5 3.0", "constant", "affine")
EXTRA_LINES = ("[extra]", "[model]", "bogus = 1", "kappa = 2.0", "level = 4.0",
               "x_max = 1e30", "no equals sign", "% = 1")


def fig2_near_float_max(intercept: str) -> str:
    """fig2 with the capacity's intercept at ``intercept`` and x_max = 1e30,
    so that the run is valid and the plot's y axis reaches ``intercept``."""
    text = "\n".join(FIG2_LINES).replace("intercept = 5.0", f"intercept = {intercept}")
    return text.replace("T = 2.0", "T = 2.0\nx_max = 1e30") + "\n"


@st.composite
def scenario_texts(draw):
    """fig2's text with a few values replaced, lines dropped or lines added."""
    lines = list(FIG2_LINES)
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(("set", "drop", "insert")))
        keyed = [i for i, line in enumerate(lines) if "=" in line]
        if action == "set" and keyed:
            i = draw(st.sampled_from(keyed))
            lines[i] = lines[i].split("=")[0] + "= " + draw(st.sampled_from(VALUE_TOKENS))
        elif action == "drop" and lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
        else:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(EXTRA_LINES)))
    return "\n".join(lines) + "\n"


@settings(max_examples=50, deadline=None)
@given(text=scenario_texts())
@example(text="\n".join(FIG2_LINES).replace("grid_n = 256", "grid_n = 1e12"))
@example(text="\n".join(FIG2_LINES).replace("a = 1.5", "a = 1e12"))
@example(text="\n".join(FIG2_LINES).replace("grid_n = 256", "grid_n = 100.5"))
@example(text="\ufeff" + "\n".join(FIG2_LINES))
@example(text=fig2_near_float_max("1.75e308"))  # the padded y axis ends at inf
@example(text=fig2_near_float_max("1.6e308"))  # the last tick's stop overflows
@example(text="\n".join(FIG2_LINES).replace("t_end = 200.0", "t_end = 1.75e308"))  # inf steps
def test_fuzzed_scenario_text_exits_with_documented_code(text):
    # run reaches the classifier, the energy monitor, the CSV writers and the
    # plot; a 20 s horizon keeps each run well under 0.2 s
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scenario"
        path.write_text(text, encoding="utf-8")
        assert _exit_code(["check", str(path), "--out", tmp]) in DOCUMENTED_EXIT_CODES
        argv = ["run", str(path), "--t-end", "20", "--out", str(Path(tmp) / "run")]
        assert _exit_code(argv) in DOCUMENTED_EXIT_CODES


@pytest.mark.parametrize("intercept, code", [
    ("1.75e308", 65),  # the 5% pad takes the y axis's top to inf
    ("1.6e308", 65),  # the top fits, but the tick stop top + step/2 does not
    ("1e308", 12),  # every tick fits, the first one at -0.0
])
def test_plot_axis_near_the_float_maximum(tmp_path, intercept, code):
    path = tmp_path / "near-max.scenario"
    path.write_text(fig2_near_float_max(intercept), encoding="utf-8")
    out = tmp_path / "X" / "a" / "b"
    proc = run_cli("run", path, "--t-end", "20", "--out", out)
    assert (proc.returncode, "Traceback" in proc.stderr) == (code, False)
    if code == 65:
        assert proc.stderr.startswith("error[config]: plot axis [")
        assert proc.stderr.rstrip().endswith(": its ticks exceed the float range")
        # the plot fails after three files are written: they go, and so does
        # every directory of --out that the run created
        assert not (tmp_path / "X").exists()
    else:
        y_ticks = [e.text for e in ET.parse(out / "plot.svg").iter()
                   if e.tag.endswith("text") and e.get("text-anchor") == "end"]
        assert y_ticks == ["-0", "2.5e+307", "5e+307", "7.5e+307", "1e+308"]
