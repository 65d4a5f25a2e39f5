import os
import subprocess
import sys
from pathlib import Path

import pytest

from ratelab import scenario
from ratelab.cli import main

DOCUMENTED_EXIT_CODES = {0, 10, 11, 12, 13, 64, 65, 66, 70}
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a traceback."""
    return subprocess.run(
        [sys.executable, "-m", "ratelab.cli", *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=False,
    )


def test_run_subcommand(fig2_path, tmp_path, capsys):
    code = main(["run", str(fig2_path), "--out", str(tmp_path / "o"), "--t-end", "50"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: CertifiedStable" in out
    assert "classification: Converged" in out
    assert (tmp_path / "o" / "trajectory.csv").is_file()


def test_run_exit_code_tracks_classification(fig2_path, tmp_path):
    # too-short horizon gives the Undetermined guard path and exit 12
    code = main(["run", str(fig2_path), "--out", str(tmp_path / "u"), "--t-end", "5"])
    assert code == 12


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
    assert code == 70


def test_check_small_b_has_no_traceback(fig2_path, tmp_path):
    # b = 0.01 makes x_max**((a+b+1)/b) overflow inside the equilibrium solve
    path = tmp_path / "small_b.scenario"
    path.write_text(fig2_path.read_text().replace("b = 0.2", "b = 0.01"), encoding="utf-8")
    proc = run_cli("check", path)
    assert proc.returncode in DOCUMENTED_EXIT_CODES
    assert "Traceback" not in proc.stderr
    assert "equilibrium: x_star=1.00553282" in proc.stdout


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


def test_non_numeric_grid_n_exits_65(fig2_path, tmp_path):
    path = tmp_path / "abc.scenario"
    text = fig2_path.read_text().replace("grid_n = 256", "grid_n = abc")
    path.write_text(text, encoding="utf-8")
    proc = run_cli("check", path)
    assert proc.returncode == 65
    assert "Traceback" not in proc.stderr


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
