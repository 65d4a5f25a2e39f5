import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ratelab import (
    CERTIFIED,
    CONVERGED,
    NOT_CERTIFIED,
    OSCILLATING,
    UNDETERMINED,
    ConfigError,
    IntegrationDivergedError,
    load_scenario,
    run_scenario,
    snap_step,
    sweep,
)
from ratelab.scenario import EXIT_CODES, apply_param, auto_margin_range, _execute
from conftest import BASE_LAW, base_params

MINIMAL = """\
[model]
kappa = 1.0
a = 1.5
b = 0.2
tau = 3.0
T = 2.0

[capacity]
kind = affine
intercept = 5.0
slope = 1.0

[run]
init_x = 1.0
"""


def write_scenario(tmp_path: Path, text: str, name: str = "case.scenario") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadScenario:
    def test_shipped_benchmark_files(self, fig1_path, fig2_path):
        cfg1 = load_scenario(fig1_path)
        assert cfg1.params.b == 0.8
        assert (cfg1.params.kappa, cfg1.params.a) == (1.0, 1.5)
        assert (cfg1.params.tau, cfg1.params.T_delay) == (3.0, 2.0)
        assert cfg1.law.kind == "affine"
        assert (cfg1.law.c0, cfg1.law.slope) == (5.0, 1.0)
        assert cfg1.init_x == 1.0
        assert cfg1.t_end == 200.0
        assert cfg1.step == 0.01
        assert cfg1.margin_range is None
        assert cfg1.name == "fig1"
        cfg2 = load_scenario(fig2_path)
        assert cfg2.params.b == 0.2

    def test_defaults_filled(self, tmp_path):
        cfg = load_scenario(write_scenario(tmp_path, MINIMAL))
        assert cfg.t_end == 200.0
        assert cfg.step == 0.01
        assert cfg.grid_n == 256
        assert cfg.tol_conv == 1e-2
        assert cfg.tol_osc == 0.1
        assert cfg.tail_fraction == 0.2
        assert cfg.margin_range is None

    def test_delay_ordering_rejected_citing_a1(self, tmp_path):
        text = MINIMAL.replace("tau = 3.0", "tau = 2.0").replace("T = 2.0", "T = 3.0")
        with pytest.raises(ConfigError, match="A1"):
            load_scenario(write_scenario(tmp_path, text))

    def test_unknown_key_rejected(self, tmp_path):
        text = MINIMAL + "\n[run]\nwibble = 1\n"
        # duplicate section is itself a parse error; use a fresh key instead
        text = MINIMAL.replace("init_x = 1.0", "init_x = 1.0\nwibble = 1")
        with pytest.raises(ConfigError, match="wibble"):
            load_scenario(write_scenario(tmp_path, text))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="extras"):
            load_scenario(write_scenario(tmp_path, MINIMAL + "\n[extras]\nfoo = 1\n"))

    def test_parse_error_carries_location(self, tmp_path):
        bad = MINIMAL + "\nthis is not a key value line\n"
        with pytest.raises(ConfigError, match="line"):
            load_scenario(write_scenario(tmp_path, bad))

    def test_non_numeric_value_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="kappa"):
            load_scenario(write_scenario(tmp_path, MINIMAL.replace("kappa = 1.0", "kappa = fast")))

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ConfigError, match="init_x"):
            load_scenario(write_scenario(tmp_path, MINIMAL.replace("init_x = 1.0", "")))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "absent.scenario")

    def test_nonpositive_init_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="init_x"):
            load_scenario(write_scenario(tmp_path, MINIMAL.replace("init_x = 1.0", "init_x = 0")))

    def test_margin_range_parsing(self, tmp_path):
        text = MINIMAL + "\n[analysis]\nmargin_range = 0.5 3.0\n"
        cfg = load_scenario(write_scenario(tmp_path, text))
        assert cfg.margin_range == (0.5, 3.0)

    def test_margin_range_validation(self, tmp_path):
        text = MINIMAL + "\n[analysis]\nmargin_range = 3.0 0.5\n"
        with pytest.raises(ConfigError, match="margin_range"):
            load_scenario(write_scenario(tmp_path, text))

    def test_grid_n_guard(self, tmp_path):
        text = MINIMAL + "\n[analysis]\ngrid_n = 8\n"
        with pytest.raises(ConfigError, match="grid_n"):
            load_scenario(write_scenario(tmp_path, text))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "section, key",
        [("run", "t_end"), ("run", "step"), ("run", "init_x"), ("analysis", "grid_n"),
         ("analysis", "tol_conv"), ("analysis", "tol_osc"), ("analysis", "tail_fraction")],
    )
    def test_non_finite_number_rejected(self, tmp_path, section, key, value):
        text = MINIMAL.replace("init_x = 1.0\n", "") + "\n[analysis]\n"
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        if key != "init_x":
            text = text.replace("[run]\n", "[run]\ninit_x = 1.0\n")
        with pytest.raises(ConfigError, match=f"'{key}' must be finite"):
            load_scenario(write_scenario(tmp_path, text))

    def test_constant_law(self, tmp_path):
        text = MINIMAL.replace(
            "kind = affine\nintercept = 5.0\nslope = 1.0", "kind = constant\nlevel = 4.0"
        )
        cfg = load_scenario(write_scenario(tmp_path, text))
        assert cfg.law.kind == "constant"
        assert cfg.law.value(123.0) == 4.0


class TestSnapStep:
    def test_no_snap_needed(self):
        assert snap_step(0.01, 3.0, 2.0) == 0.01

    def test_snaps_down_to_common_divisor(self):
        h = snap_step(0.01, 0.5, 1.0 / 3.0)
        assert h == pytest.approx(0.5 / 51.0, rel=1e-15)
        assert h <= 0.01
        assert (0.5 / h) == pytest.approx(round(0.5 / h), abs=1e-9)
        assert ((1.0 / 3.0) / h) == pytest.approx(round((1.0 / 3.0) / h), abs=1e-9)

    def test_irrational_ratio_rejected(self):
        with pytest.raises(ConfigError):
            snap_step(0.01, 1.0, 1.0 / math.pi)


class TestRunScenario:
    def test_emits_full_output_set(self, fig2_path, tmp_path):
        cfg = replace(load_scenario(fig2_path), t_end=50.0)
        res = run_scenario(cfg, out_dir=tmp_path / "out")
        for key in ("trajectory", "lyapunov", "report", "plot", "config_echo"):
            assert Path(res.paths[key]).is_file(), key
        header = Path(res.paths["trajectory"]).read_text().splitlines()[0]
        assert header == "t,x,c,dxdt"
        lyap_lines = Path(res.paths["lyapunov"]).read_text().splitlines()
        assert lyap_lines[0] == "t,V"
        assert lyap_lines[1].startswith("3,")
        report = Path(res.paths["report"]).read_text()
        assert "verdict: CertifiedStable" in report
        assert "classification: Converged" in report
        assert Path(res.paths["plot"]).read_text().startswith("<svg")

    def test_round_trip_reproduces_trajectory_bytes(self, fig2_path, tmp_path):
        cfg = replace(load_scenario(fig2_path), t_end=50.0)
        first = run_scenario(cfg, out_dir=tmp_path / "a")
        echo_cfg = load_scenario(first.paths["config_echo"])
        second = run_scenario(echo_cfg, out_dir=tmp_path / "b")
        b1 = Path(first.paths["trajectory"]).read_bytes()
        b2 = Path(second.paths["trajectory"]).read_bytes()
        assert b1 == b2

    def test_short_horizon_yields_undetermined(self, fig2_path, tmp_path):
        cfg = replace(load_scenario(fig2_path), t_end=5.0)
        res = run_scenario(cfg, out_dir=tmp_path / "short")
        assert res.classification.kind == UNDETERMINED
        assert res.exit_code == EXIT_CODES[UNDETERMINED] == 12

    def test_failed_run_leaves_no_outputs(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)
        cfg = replace(cfg, params=replace(cfg.params, kappa=1e9), t_end=10.0)
        out = tmp_path / "boom"
        with pytest.raises(IntegrationDivergedError):
            run_scenario(cfg, out_dir=out)
        assert not out.exists() or not any(out.iterdir())

    def test_snap_recorded_in_echo(self, tmp_path):
        text = MINIMAL.replace("tau = 3.0", "tau = 0.5").replace("T = 2.0", "T = 0.25")
        text = text.replace("[run]\ninit_x = 1.0", "[run]\ninit_x = 1.0\nstep = 0.03\nt_end = 30.0")
        cfg = load_scenario(write_scenario(tmp_path, text))
        assert cfg.step < 0.03
        res = run_scenario(cfg, out_dir=tmp_path / "snap")
        echo = Path(res.paths["config_echo"]).read_text()
        assert "snapped down from 0.03" in echo


class TestAutoMarginRange:
    def test_envelope_padded(self, fig2_result):
        cfg = fig2_result.config
        traj = fig2_result.trajectory
        lo, hi = auto_margin_range(cfg, traj, fig2_result.report.equilibrium.x_star)
        span = traj.x.max() - traj.x.min()
        assert lo == pytest.approx(traj.x.min() - 0.2 * span, rel=1e-12)
        assert hi == pytest.approx(traj.x.max() + 0.2 * span, rel=1e-12)

    def test_degenerate_envelope(self, fig2_result):
        cfg = fig2_result.config
        t = np.arange(0.0, 40.0, 0.01)
        from conftest import synthetic_trajectory

        traj = synthetic_trajectory(t, np.full_like(t, 1.1), cfg.params)
        lo, hi = auto_margin_range(cfg, traj, 1.1)
        assert lo < 1.1 < hi

    def test_without_trajectory_stays_inside_capacity(self, fig2_result):
        cfg = fig2_result.config
        lo, hi = auto_margin_range(cfg, None, fig2_result.report.equilibrium.x_star)
        assert lo > 0
        assert cfg.law.value(hi) > 0


class TestSweep:
    def test_two_point_sweep(self, fig2_path, tmp_path):
        cfg = replace(load_scenario(fig2_path), t_end=100.0)
        rep = sweep(cfg, "b", [0.1, 0.5], out_dir=tmp_path / "sw")
        assert [r.value for r in rep.rows] == [0.1, 0.5]
        assert all(r.status == "ok" for r in rep.rows)
        assert rep.rows[0].verdict == CERTIFIED
        assert rep.rows[1].verdict == NOT_CERTIFIED
        assert rep.largest_certified == 0.1
        assert rep.certified_boundary == (0.1, 0.5)
        csv_text = Path(rep.paths["sweep_csv"]).read_text().splitlines()
        assert csv_text[0].startswith("param,value,status")
        assert len(csv_text) == 3
        assert (tmp_path / "sw" / "sweep_report.txt").is_file()
        assert rep.monotone_consistent is True

    def test_error_rows_do_not_stop_the_sweep(self, fig2_path, tmp_path):
        cfg = replace(load_scenario(fig2_path), t_end=60.0)
        rep = sweep(cfg, "b", [0.2, -1.0, 0.3], out_dir=tmp_path / "sw2")
        statuses = [r.status for r in rep.rows]
        assert statuses == ["ok", "error", "ok"]
        assert rep.rows[1].message

    def test_tau_sweep_respects_delay_ordering(self, fig2_path, tmp_path):
        cfg = replace(load_scenario(fig2_path), t_end=60.0)
        rep = sweep(cfg, "tau", [1.0], out_dir=None)
        # tau = 1 < T = 2 must come back as an A1 error row, not a crash
        assert rep.rows[0].status == "error"
        assert "A1" in rep.rows[0].message

    def test_tau_sweep_verdict_fixed_range_is_delay_independent(self, fig2_path):
        cfg = replace(load_scenario(fig2_path), t_end=60.0, margin_range=(0.95, 1.2))
        rep = sweep(cfg, "tau", [3.0, 7.5, 30.0])
        assert all(r.status == "ok" for r in rep.rows)
        assert {r.verdict for r in rep.rows} == {CERTIFIED}
        assert len({r.min_margin for r in rep.rows}) == 1

    def test_unknown_parameter(self, fig2_path):
        cfg = load_scenario(fig2_path)
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            sweep(cfg, "color", [1.0])

    def test_parallel_matches_sequential(self, fig2_path, tmp_path):
        cfg = replace(load_scenario(fig2_path), t_end=60.0)
        seq = sweep(cfg, "b", [0.15, 0.45], out_dir=None, n_jobs=1)
        par = sweep(cfg, "b", [0.15, 0.45], out_dir=None, n_jobs=2)
        assert seq.rows == par.rows

    def test_apply_param_variants(self, fig2_path):
        cfg = load_scenario(fig2_path)
        assert apply_param(cfg, "kappa", 2.0).params.kappa == 2.0
        assert apply_param(cfg, "intercept", 6.0).law.c0 == 6.0
        assert apply_param(cfg, "slope", 2.0).law.slope == 2.0
        assert apply_param(cfg, "T", 1.0).params.T_delay == 1.0
        # re-snap on delay change
        assert apply_param(cfg, "tau", 2.5).step == pytest.approx(0.01, rel=1e-12)
