"""The one script in scripts/, run end to end in a fresh interpreter."""

import subprocess
import sys

import pytest

from conftest import REPO


def run_script(name, *argv, cwd=None):
    """``scripts/<name>`` in a fresh interpreter (the script puts src/ on its own
    path), so an uncaught exception shows as a traceback and a hang as
    ``subprocess.TimeoutExpired``."""
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *map(str, argv)],
        capture_output=True, text=True, timeout=60, check=False, cwd=cwd,
    )


def boundary_interval(stdout):
    """The (lo, hi) bracket and the x-range text of the script's last line."""
    last = stdout.splitlines()[-1]
    assert last.startswith("certification boundary in b: ("), last
    bracket, x_range = last.split(": (")[1].split(") over x-range ")
    lo, hi = map(float, bracket.split(", "))
    return lo, hi, x_range


def test_certification_boundary_prints_the_boundary(tmp_path):
    # README's boundary: the margin over the base fig2 run's padded envelope
    # changes sign at b = 0.26036, and the grid's density must not move it
    intervals = []
    for n in (4, 20):
        proc = run_script("certification_boundary.py", "--n", n, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "\ncertification boundary in b: (" in proc.stdout
        assert "b=0.0500  verdict=CertifiedStable  min_margin=+0.1213" in proc.stdout
        lo, hi, x_range = boundary_interval(proc.stdout)
        assert x_range == "[0.9618, 1.2293]"
        assert 0.2603 <= lo <= 0.26036 <= hi <= 0.2605
        intervals.append((lo, hi))
    assert proc.stdout.splitlines()[-1] == (  # README's line, at the default --n 20
        "certification boundary in b: (0.26035, 0.26045) over x-range [0.9618, 1.2293]")
    assert max(lo for lo, _ in intervals) <= min(hi for _, hi in intervals)
    assert list(tmp_path.iterdir()) == []  # the script writes no file


@pytest.mark.parametrize("argv, message",
                         [(("--n", "1"), "error: argument --n: must be at least 2"),
                          (("--n", "2", "--tol", "0"), "error: argument --tol: must be a positive finite number"),
                          (("--jobs", "2"), "error: unrecognized arguments: --jobs 2"),
                          (("--out", "b"), "error: unrecognized arguments: --out b")],
                         ids=["n-1", "tol-0", "jobs-2", "out"])
def test_certification_boundary_refuses_bad_arguments(tmp_path, argv, message):
    proc = run_script("certification_boundary.py", *argv, cwd=tmp_path)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_certification_boundary_ends_below_the_float_spacing():
    # no bracket is 1e-300 wide near b = 0.26: the bisection stops at
    # adjacent floats instead of looping
    proc = run_script("certification_boundary.py", "--n", "4", "--tol", "1e-300")
    assert proc.returncode == 0, proc.stderr
    lo, hi, _ = boundary_interval(proc.stdout)
    assert 0.2603 <= lo <= hi <= 0.2605


def test_certification_boundary_without_a_bracket_exits_1():
    # b = 1 fails the margin over the base envelope, and b = 0 is refused by
    # the model and printed as an error row: no certified value to bracket from
    proc = run_script("certification_boundary.py", "--lo", "0", "--hi", "1", "--n", "2")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "b=0.0000  error: b = 0.0: invalid: b must be a positive finite number, got 0.0",
        "b=1.0000  verdict=  NotCertified  min_margin=-0.3646",
        "no certified/uncertified bracket in the swept range",
    ]
    assert "Traceback" not in proc.stderr
