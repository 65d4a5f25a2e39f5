import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ratelab import CapacityLaw, ModelParams, Trajectory, load_scenario
from ratelab.model import AFFINE
from ratelab.scenario import _execute

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
SRC = REPO / "src"

BASE_LAW = CapacityLaw(AFFINE, 5.0, 1.0)


def run_cli(*argv):
    """The CLI in a fresh interpreter, so an uncaught exception shows as a traceback."""
    return subprocess.run(
        [sys.executable, "-m", "ratelab.cli", *map(str, argv)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=False,
    )


def base_params(b: float, **overrides) -> ModelParams:
    kw = dict(kappa=1.0, a=1.5, b=b, tau=3.0, T_delay=2.0)
    kw.update(overrides)
    return ModelParams(**kw)


def synthetic_trajectory(t, x, params, law=BASE_LAW) -> Trajectory:
    """Build a trajectory directly from arrays that start at t = 0 (dxdt by
    finite differences)."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    step = float(t[1] - t[0])
    return Trajectory(
        step=step,
        t_end=float(t[-1]),
        t=t,
        x=x,
        c=law.value(x),
        dxdt=np.gradient(x, step),
        params=params,
        law=law,
    )


@pytest.fixture(scope="session")
def fig1_path() -> Path:
    return SCENARIOS / "fig1.scenario"


@pytest.fixture(scope="session")
def fig2_path() -> Path:
    return SCENARIOS / "fig2.scenario"


@pytest.fixture(scope="session")
def fig2_result(fig2_path):
    """Full in-memory pipeline for the stable benchmark, shared across tests."""
    return _execute(load_scenario(fig2_path))


@pytest.fixture(scope="session")
def fig1_result(fig1_path):
    return _execute(load_scenario(fig1_path))
