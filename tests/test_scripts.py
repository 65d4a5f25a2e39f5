"""The two scripts in scripts/, run end to end in a fresh interpreter."""

import subprocess
import sys

import pytest

from conftest import REPO


def run_script(name, *argv):
    """``scripts/<name>`` in a fresh interpreter (each puts src/ on its own
    path), so an uncaught exception shows as a traceback and a hang as
    ``subprocess.TimeoutExpired``."""
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *map(str, argv)],
        capture_output=True, text=True, timeout=60, check=False,
    )


def test_certification_boundary_prints_the_boundary(tmp_path):
    proc = run_script("certification_boundary.py", "--n", "4", "--out", tmp_path / "b")
    assert proc.returncode == 0, proc.stderr
    assert "\ncertification boundary in b: (" in proc.stdout


@pytest.mark.parametrize("argv", [("--n", "1"), ("--n", "2", "--tol", "0")],
                         ids=["n-1", "tol-0"])
def test_certification_boundary_refuses_bad_arguments(tmp_path, argv):
    proc = run_script("certification_boundary.py", *argv, "--out", tmp_path / "b")
    assert proc.returncode == 2
    assert "error: argument" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "b").exists()


def test_certification_boundary_ends_below_the_float_spacing(tmp_path):
    # no bracket is 1e-300 wide near b = 0.26: the bisection stops at
    # adjacent floats instead of looping
    proc = run_script("certification_boundary.py", "--n", "4", "--tol", "1e-300",
                      "--out", tmp_path / "b")
    assert proc.returncode == 0, proc.stderr
    assert "\ncertification boundary in b: (" in proc.stdout


def test_reproduce_figures_prints_both_rows(tmp_path):
    proc = run_script("reproduce_figures.py", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[:6] for line in proc.stdout.splitlines()]
    assert ["fig1", "0.8", "1.36715", "3.63285", "NotCertified", "Converged"] in rows
    assert ["fig2", "0.2", "1.10594", "3.89406", "CertifiedStable", "Converged"] in rows
