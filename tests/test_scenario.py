import concurrent.futures
import math
import os
import pickle
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from ratelab import (
    CERTIFIED,
    CONVERGED,
    NOT_CERTIFIED,
    OSCILLATING,
    SATURATED,
    UNDETERMINED,
    ConfigError,
    IntegrationDivergedError,
    ModelDomainError,
    RatelabError,
    check_stability,
    load_scenario,
    run_scenario,
    snap_step,
    sweep,
)
from ratelab import config, scenario
from ratelab.model import CapacityLaw, ModelParams
from ratelab.config import (AFFINE, CONSTANT, FIELDS, ScenarioConfig, apply_param, build_config,
                            write_config_echo)
from ratelab.scenario import EXIT_CODES, RunResult, auto_margin_range, format_report, _execute
from ratelab.svgplot import _ticks, line_plot_svg
from conftest import BASE_LAW, SCENARIOS, base_params, run_cli, synthetic_trajectory
from oracle import apply_params as reference_apply_params
from oracle import sweep_summary as reference_sweep_summary
from oracle import ticks as reference_ticks

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
        assert cfg1.law == CapacityLaw(5.0, 1.0)
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
        with pytest.raises(ConfigError, match=r": invalid: assumption A1 requires tau >= T, "
                           r"got tau = 2\.0, T = 3\.0$"):
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

    @pytest.mark.parametrize("hi", ["5", "5.0000000001", "6"])
    def test_margin_range_reaching_capacity_root_rejected(self, tmp_path, hi):
        # g(x) = 5 - x: the margin has no capacity from x = 5 on
        text = MINIMAL + f"\n[analysis]\nmargin_range = 1 {hi}\n"
        with pytest.raises(ConfigError, match=r"\[analysis\] .* reaches the capacity root"):
            load_scenario(write_scenario(tmp_path, text))
        below = MINIMAL + "\n[analysis]\nmargin_range = 1 4.999\n"
        assert load_scenario(write_scenario(tmp_path, below)).margin_range == (1.0, 4.999)

    @pytest.mark.parametrize("init_x, g", [
        ("5", "0.0"), ("5.0000000001", "-1.000000082740371e-10"), ("6", "-1.0")])
    def test_init_x_reaching_capacity_root_rejected(self, tmp_path, init_x, g):
        # g(x) = 5 - x: a run that starts at x = 5 or past it has no capacity at t = 0
        text = MINIMAL.replace("init_x = 1.0", f"init_x = {init_x}")
        with pytest.raises(ConfigError) as refused:
            load_scenario(write_scenario(tmp_path, text))
        x = float(init_x)
        assert str(refused.value).endswith(
            f"case.scenario: [run] init_x = {x} reaches the capacity root: g({x}) = {g} <= 0")
        below = MINIMAL.replace("init_x = 1.0", "init_x = 4.999")
        assert load_scenario(write_scenario(tmp_path, below)).init_x == 4.999

    def test_grid_n_guard(self, tmp_path):
        text = MINIMAL + "\n[analysis]\ngrid_n = 8\n"
        with pytest.raises(ConfigError, match="grid_n"):
            load_scenario(write_scenario(tmp_path, text))

    def test_fractional_grid_n_refused(self, tmp_path):
        text = MINIMAL + "\n[analysis]\ngrid_n = 100.5\n"
        with pytest.raises(ConfigError, match=r"grid_n must be a whole number .*got 100\.5$"):
            load_scenario(write_scenario(tmp_path, text))
        whole = MINIMAL + "\n[analysis]\ngrid_n = 2.56e2\n"
        assert load_scenario(write_scenario(tmp_path, whole)).grid_n == 256

    def test_leading_byte_order_mark_dropped(self, fig2_path, tmp_path):
        path = tmp_path / "bom.scenario"
        path.write_bytes(b"\xef\xbb\xbf" + fig2_path.read_bytes())
        cfg = load_scenario(path)
        assert cfg.name == "bom"
        assert cfg._replace(name="fig2") == load_scenario(fig2_path)

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

    def test_percent_sign_read_literally(self, tmp_path):
        # values are plain text: configparser interpolation is off
        text = MINIMAL.replace("kind = affine", "kind = 100%")
        with pytest.raises(ConfigError, match=r"\.scenario: invalid: unknown capacity law kind "
                           r"'100%'$"):
            load_scenario(write_scenario(tmp_path, text))

    def test_step_ceiling_checked_at_load(self, tmp_path):
        # 1e11 steps: refused before anything is allocated
        text = MINIMAL.replace("init_x = 1.0", "init_x = 1.0\nt_end = 1e9")
        with pytest.raises(ConfigError, match="ceiling"):
            load_scenario(write_scenario(tmp_path, text))

    def test_grid_n_ceiling_checked_at_load(self, tmp_path):
        # 1e12 margin-grid points: refused before anything is allocated
        text = MINIMAL + "\n[analysis]\ngrid_n = 1e12\n"
        with pytest.raises(ConfigError, match="grid_n"):
            load_scenario(write_scenario(tmp_path, text))

    def test_pre_history_ceiling_checked_at_load(self, tmp_path):
        # tau = 1e6 at step 0.01 would mean 1e8 pre-history samples
        text = MINIMAL.replace("tau = 3.0", "tau = 1e6")
        with pytest.raises(ConfigError, match="pre-history exceeds the ceiling"):
            load_scenario(write_scenario(tmp_path, text))

    def test_constant_law(self, tmp_path):
        text = MINIMAL.replace(
            "kind = affine\nintercept = 5.0\nslope = 1.0", "kind = constant\nlevel = 4.0"
        )
        cfg = load_scenario(write_scenario(tmp_path, text))
        assert cfg.law == CapacityLaw(4.0)
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

    def test_refinement_reaches_a_thousandth_of_the_step(self):
        # T / tau = 1/1000: the step that divides both is step / 1000 exactly,
        # the finest step the search tries
        assert snap_step(1.0, 1.0, 0.001) == 0.001

    def test_a_delay_within_the_tolerance_of_zero_steps_is_not_whole(self):
        # T / h is at most 1e-7 for every h tried: it rounds to 0 steps, and
        # 0 steps is no whole number of them
        with pytest.raises(ConfigError, match="could not find a step"):
            snap_step(0.01, 1.0, 1e-12)

    def test_a_negative_delay_is_whole_in_no_step(self):
        # T / h = -100 at h = 0.01 is whole, but no count of steps is negative
        with pytest.raises(ConfigError, match="could not find a step"):
            snap_step(0.01, 1.0, -1.0)


class TestGridBounds:
    """Each bound on a config's step grid and analysis grid holds at its
    edge: the value on the edge is accepted and the next one past it is
    refused.  Configs only: nothing here integrates."""

    fig2 = load_scenario(SCENARIOS / "fig2.scenario")

    def test_a_tail_window_of_exactly_one_step_is_accepted(self):
        # 0.0625 * 8.0 = 0.5: the tail and mid-run windows span one step
        cfg = config.apply_params(self.fig2, {"step": 0.5, "t_end": 8.0, "tail_fraction": 0.0625})
        assert (cfg.step, cfg.tail_fraction * cfg.t_end) == (0.5, 0.5)
        with pytest.raises(ConfigError, match="shorter than one step 0.5$"):
            config.apply_params(self.fig2, {"step": 0.5, "t_end": 8.0,
                                            "tail_fraction": math.nextafter(0.0625, 0.0)})

    def test_a_tail_fraction_of_one_half_is_accepted(self):
        assert apply_param(self.fig2, "tail_fraction", 0.5).tail_fraction == 0.5
        with pytest.raises(ConfigError, match=r"tail_fraction must be in \(0, 0\.5\]"):
            apply_param(self.fig2, "tail_fraction", math.nextafter(0.5, 1.0))

    def test_a_grid_of_16_nodes_is_accepted(self):
        assert apply_param(self.fig2, "grid_n", 16).grid_n == 16
        with pytest.raises(ConfigError, match=r"grid_n must be a whole number in \[16, "):
            apply_param(self.fig2, "grid_n", 15)

    def test_exactly_max_steps_of_run_is_accepted(self):
        # 5e6 / 0.5 = 1e7 = MAX_STEPS steps
        cfg = config.apply_params(self.fig2, {"step": 0.5, "t_end": 5e6})
        assert cfg.t_end / cfg.step == config.MAX_STEPS
        with pytest.raises(ConfigError, match="steps exceeds the ceiling of 10000000$"):
            config.apply_params(self.fig2, {"step": 0.5, "t_end": math.nextafter(5e6, math.inf)})

    def test_exactly_max_steps_of_pre_history_is_accepted(self):
        # tau / step = 5e6 / 0.5 = MAX_STEPS: the search's first step divides T = 2
        assert snap_step(0.5, 5e6, 2.0) == 0.5
        with pytest.raises(ConfigError, match="pre-history exceeds the ceiling of 10000000$"):
            snap_step(0.5, math.nextafter(5e6, math.inf), 2.0)

    def test_a_zero_t_end_is_not_positive(self):
        # refused as not positive, before it is compared with the step
        with pytest.raises(ConfigError) as refused:
            apply_param(self.fig2, "t_end", 0.0)
        assert str(refused.value) == "t_end = 0.0: [run] t_end must be positive, got 0.0"


class TestRunScenario:
    def test_emits_full_output_set(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)._replace(t_end=50.0)
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

    def test_plot_is_well_formed_for_markup_in_names(self, fig2_path, tmp_path):
        path = tmp_path / "R&D<1>.scenario"
        path.write_bytes(fig2_path.read_bytes())
        proc = run_cli("run", path, "--t-end", "30", "--out", tmp_path / "o")
        assert proc.returncode == 12
        assert "Traceback" not in proc.stderr
        texts = [e.text for e in ET.parse(tmp_path / "o" / "plot.svg").iter()]
        assert "R&D<1>: rate and capacity" in texts
        line_plot_svg(tmp_path / "labels.svg", [0.0, 1.0], [("x & <y>", [1.0, 2.0])],
                      title="a<b", xlabel="t & s", ylabel="y > 0")
        texts = [e.text for e in ET.parse(tmp_path / "labels.svg").iter()]
        assert {"a<b", "t & s", "y > 0", "x & <y>"} <= set(texts)

    def test_round_trip_reproduces_trajectory_bytes(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)._replace(t_end=50.0)
        first = run_scenario(cfg, out_dir=tmp_path / "a")
        echo_cfg = load_scenario(first.paths["config_echo"])
        second = run_scenario(echo_cfg, out_dir=tmp_path / "b")
        b1 = Path(first.paths["trajectory"]).read_bytes()
        b2 = Path(second.paths["trajectory"]).read_bytes()
        assert b1 == b2

    def test_short_horizon_yields_undetermined(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)._replace(t_end=5.0)
        res = run_scenario(cfg, out_dir=tmp_path / "short")
        assert res.classification.kind == UNDETERMINED
        assert EXIT_CODES[res.classification.kind] == EXIT_CODES[UNDETERMINED] == 12

    def test_failed_run_leaves_no_outputs(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)
        cfg = cfg._replace(params=cfg.params._replace(kappa=1e9), t_end=10.0)
        out = tmp_path / "boom"
        with pytest.raises(IntegrationDivergedError):
            run_scenario(cfg, out_dir=out)
        assert not out.exists() or not any(out.iterdir())

    def test_failed_write_leaves_no_outputs(self, fig2_path, tmp_path, monkeypatch):
        def broken_plot(path, *args, **kwargs):
            Path(path).write_text("<svg", encoding="utf-8")
            raise OSError("disk full")

        monkeypatch.setattr(scenario, "line_plot_svg", broken_plot)
        cfg = load_scenario(fig2_path)._replace(t_end=10.0)
        out = tmp_path / "partial"
        with pytest.raises(OSError, match="disk full"):
            run_scenario(cfg, out_dir=out)
        assert not out.exists()

    def test_failed_write_keeps_a_directory_that_existed(self, fig2_path, tmp_path,
                                                         monkeypatch):
        def broken_plot(path, *args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(scenario, "line_plot_svg", broken_plot)
        cfg = load_scenario(fig2_path)._replace(t_end=10.0)
        out = tmp_path / "existing"
        out.mkdir()
        with pytest.raises(OSError, match="disk full"):
            run_scenario(cfg, out_dir=out)
        assert list(out.iterdir()) == []

    def test_snap_recorded_in_echo(self, tmp_path):
        text = MINIMAL.replace("tau = 3.0", "tau = 0.5").replace("T = 2.0", "T = 0.25")
        text = text.replace("[run]\ninit_x = 1.0", "[run]\ninit_x = 1.0\nstep = 0.03\nt_end = 30.0")
        cfg = load_scenario(write_scenario(tmp_path, text))
        assert cfg.step < 0.03
        res = run_scenario(cfg, out_dir=tmp_path / "snap")
        echo = Path(res.paths["config_echo"]).read_text()
        assert "snapped down from 0.03" in echo


class TestRecords:
    def test_fields_refuse_assignment(self, fig2_path, tmp_path):
        res = _execute(load_scenario(fig2_path)._replace(t_end=30.0))
        rep = sweep(res.config, "b", [0.2], out_dir=tmp_path)
        records = [res.config.params, res.config.law, res.report.equilibrium,
                   res.trajectory, res.report.violations[0], res.report,
                   res.classification, res.config, res, rep]
        assert len({type(r) for r in records}) == 10
        for record in records:
            for name in record._fields:
                before = getattr(record, name)
                with pytest.raises(AttributeError):
                    setattr(record, name, 0.5)
                assert getattr(record, name) is before

    def test_results_are_plain_records_returned_with_paths(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)._replace(t_end=30.0)
        bare = _execute(cfg)
        assert RunResult.__bases__ == (tuple,)
        assert not hasattr(bare, "__dict__")
        assert bare.paths is None
        res = run_scenario(cfg, tmp_path / "run")
        assert (res.config, res.report, res.classification) == (
            bare.config, bare.report, bare.classification)
        for name in ("t", "x", "c", "dxdt"):
            assert np.array_equal(getattr(res.trajectory, name), getattr(bare.trajectory, name))
        rows = Path(res.paths["lyapunov"]).read_text().splitlines()[1:]
        assert rows == ["%.17g,%.17g" % tv for tv in res.lyapunov]
        rep = sweep(cfg, "b", [0.2], out_dir=tmp_path / "sweep")
        assert not hasattr(rep, "__dict__")
        assert rep.paths["sweep"] == str(tmp_path / "sweep" / "sweep.csv")
        assert Path(rep.paths["sweep"]).is_file()

    def test_config_survives_pickle(self, fig2_path):
        cfg = load_scenario(fig2_path)
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg
        assert (type(back), type(back.params), type(back.law)) == (
            ScenarioConfig, ModelParams, CapacityLaw)


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

    def test_span_at_the_degenerate_threshold_pads_by_the_top(self, fig2_result):
        # an envelope [999999999, 1e9] spans 1.0, exactly 1e-9 of its top: it
        # is degenerate and padded by 0.1 * its top, not 0.2 * its span
        cfg = fig2_result.config._replace(
            params=fig2_result.config.params._replace(x_max=2e9), law=CapacityLaw(5.0))
        t = np.arange(0.0, 40.0, 0.01)
        traj = synthetic_trajectory(t, np.linspace(1e9, 999999999.0, len(t)), cfg.params)
        assert auto_margin_range(cfg, traj, 1e9) == (999999999.0 - 1e8, 1e9 + 1e8)

    def test_without_trajectory_stays_inside_capacity(self, fig2_result):
        cfg = fig2_result.config
        lo, hi = auto_margin_range(cfg, None, fig2_result.report.equilibrium.x_star)
        assert lo > 0
        assert cfg.law.value(hi) > 0

    @settings(max_examples=25, deadline=None)
    @given(x_low=st.one_of(st.floats(1.1, 4.99), st.floats(4.76, 4.99)),
           top=st.floats(0.0, 1.0), x_star=st.floats(1.1, 4.99))
    @example(x_low=1.1, top=0.87, x_star=1.1)  # [1.1, 4.5] padded to 5.18, cut at 4.75
    @example(x_low=4.8396, top=0.13, x_star=4.849)  # above 4.75 even when padded
    def test_padded_envelope_stops_below_capacity_root(self, fig2_result, x_low, top, x_star):
        # g = 5 - x: an envelope padded by 20% of its span passes 0.95*c0/slope =
        # 4.75 as its top nears the root, and is cut there; when nothing is left,
        # the fallback x_star*[0.9, 1.1] is cut the same way
        cfg = fig2_result.config
        cap = 0.95 * cfg.law.c0 / cfg.law.slope
        x_top = x_low + top * (4.99 - x_low)
        t = np.arange(0.0, 40.0, 0.01)
        traj = synthetic_trajectory(t, np.linspace(x_top, x_low, len(t)), cfg.params)
        lo, hi = auto_margin_range(cfg, traj, x_star)
        assert cfg.params.x_min <= lo < hi <= cap
        if x_low < cap:
            event("envelope reaches below the cap")
            assert lo <= x_low and hi >= min(x_top, cap)
        else:
            event("envelope above the cap")
            assert (lo <= x_low and hi == cap) or (lo, hi) == (0.9 * x_star, min(1.1 * x_star, cap))


# rows as format_sweep_summary reads them: an error row may hold any value,
# an ok row a finite one; the sampled values make repeats and signed zeros likely
_ROW_VALUES = st.sampled_from([-0.0, 0.0, 0.1, 0.25, 0.5, 1.3, 2.0]) | st.floats(-1e3, 1e3)
SWEEP_ROWS = st.builds(scenario.SweepRow, st.just("b"), st.floats(), st.just("error"),
                       message=st.just("failed")) | st.builds(
    scenario.SweepRow, st.just("b"), _ROW_VALUES, st.just("ok"),
    verdict=st.sampled_from([CERTIFIED, NOT_CERTIFIED]),
    classification=st.sampled_from([CONVERGED, OSCILLATING, SATURATED, UNDETERMINED]),
)


class TestSweep:
    def test_two_point_sweep(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)._replace(t_end=100.0)
        rep = sweep(cfg, "b", [0.1, 0.5], out_dir=tmp_path / "sw")
        assert [r.value for r in rep.rows] == [0.1, 0.5]
        assert all(r.status == "ok" for r in rep.rows)
        assert rep.rows[0].verdict == CERTIFIED
        assert rep.rows[1].verdict == NOT_CERTIFIED
        csv_text = Path(rep.paths["sweep"]).read_text().splitlines()
        assert csv_text[0].startswith("param,value,status")
        assert len(csv_text) == 3
        summary = Path(rep.paths["sweep_report"]).read_text()
        assert summary == scenario.format_sweep_summary(rep)
        lines = summary.splitlines()
        assert "largest_certified: 0.1" in lines
        assert "certified_boundary_bracket: (0.1, 0.5)" in lines
        assert not any(line.startswith("warning:") for line in lines)

    def test_full_horizon_boundary_is_readmes(self, fig2_path, tmp_path):
        # README: a b-sweep of fig2 certifies up to b ~ 0.2152
        rep = sweep(load_scenario(fig2_path), "b", [0.2151, 0.2152], out_dir=tmp_path / "sw")
        assert [r.verdict for r in rep.rows] == [CERTIFIED, NOT_CERTIFIED]
        lines = Path(rep.paths["sweep_report"]).read_text().splitlines()
        assert "certified_boundary_bracket: (0.2151, 0.2152)" in lines

    def test_summary_flags_a_non_monotone_pattern(self):
        # the shipped b-sweeps are monotone, so only built rows reach the warning
        rows = (scenario.SweepRow("b", 0.1, "ok", verdict=NOT_CERTIFIED),
                scenario.SweepRow("b", 0.2, "ok", verdict=CERTIFIED))
        rep = scenario.SweepReport("b", rows, 0)
        assert scenario.format_sweep_summary(rep).splitlines()[-1] == (
            "warning: certification pattern is not monotone in the swept value; "
            "flagging for review"
        )
        assert "warning" not in scenario.format_sweep_summary(rep._replace(param="kappa"))

    @given(st.sampled_from(["b", "kappa"]), st.lists(SWEEP_ROWS, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_summary_matches_the_oracle(self, param, rows):
        rows = tuple(r._replace(param=param) for r in rows)
        rep = scenario.SweepReport(param, rows, 0)
        expected = reference_sweep_summary(param, rows)
        for line in expected.splitlines()[4:]:  # the optional lines
            event(line.split(":")[0])
        assert scenario.format_sweep_summary(rep) == expected

    def test_error_rows_do_not_stop_the_sweep(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)._replace(t_end=60.0)
        rep = sweep(cfg, "b", [0.2, -1.0, 0.3], out_dir=tmp_path / "sw2")
        statuses = [r.status for r in rep.rows]
        assert statuses == ["ok", "error", "ok"]
        assert rep.rows[1].message

    def test_tau_sweep_respects_delay_ordering(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)._replace(t_end=60.0)
        rep = sweep(cfg, "tau", [1.0], out_dir=tmp_path)
        # tau = 1 < T = 2 must come back as an A1 error row, not a crash
        assert rep.rows[0].status == "error"
        assert "A1" in rep.rows[0].message

    def test_tau_sweep_verdict_fixed_range_is_delay_independent(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)._replace(t_end=60.0, margin_range=(0.95, 1.2))
        rep = sweep(cfg, "tau", [3.0, 7.5, 30.0], out_dir=tmp_path)
        assert all(r.status == "ok" for r in rep.rows)
        assert {r.verdict for r in rep.rows} == {CERTIFIED}
        assert len({r.min_margin for r in rep.rows}) == 1

    def test_unknown_parameter(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            sweep(cfg, "color", [1.0], out_dir=tmp_path)

    def test_unusable_out_dir_fails_before_any_value(self, fig2_path, tmp_path, monkeypatch):
        def must_not_run(job):
            raise AssertionError(f"value ran before --out was checked: {job[1:]}")

        monkeypatch.setattr(scenario, "_sweep_one", must_not_run)
        not_a_dir = tmp_path / "taken"
        not_a_dir.write_text("")
        cfg = load_scenario(fig2_path)
        with pytest.raises(OSError):
            sweep(cfg, "b", [0.2, 0.3], out_dir=not_a_dir)
        with pytest.raises(OSError):
            sweep(cfg, "b", [0.2, 0.3], out_dir=not_a_dir / "sub", n_jobs=2)

    def test_failed_write_leaves_no_sweep_csv(self, fig2_path, tmp_path):
        (tmp_path / "sweep_report.txt").mkdir()
        cfg = load_scenario(fig2_path)._replace(t_end=30.0)
        with pytest.raises(OSError):
            sweep(cfg, "b", [0.2], out_dir=tmp_path)
        assert not (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep_report.txt").is_dir()
        proc = run_cli("sweep", fig2_path, "--param", "b", "--values", "0.2",
                       "--t-end", "30", "--out", tmp_path)
        assert proc.returncode == 70
        assert "error[io]" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "sweep.csv").exists()

    def test_parallel_matches_sequential(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)._replace(t_end=60.0)
        seq = sweep(cfg, "b", [0.15, 0.45], out_dir=tmp_path / "seq", n_jobs=1)
        par = sweep(cfg, "b", [0.15, 0.45], out_dir=tmp_path / "par", n_jobs=2)
        assert seq.rows == par.rows
        assert Path(seq.paths["sweep"]).read_bytes() == Path(par.paths["sweep"]).read_bytes()

    def test_pool_never_outnumbers_values(self, fig2_path, tmp_path, monkeypatch):
        # fork starts every worker at the first submit; a fake pool records
        # what the sweep asks for and maps in this process
        built = []

        class FakePool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        cfg = load_scenario(fig2_path)._replace(t_end=30.0)
        rep = sweep(cfg, "b", [0.15, 0.45], out_dir=tmp_path, n_jobs=10_000)
        assert built == [2]
        assert [r.status for r in rep.rows] == ["ok", "ok"]
        sweep(cfg, "b", [0.15], out_dir=tmp_path, n_jobs=10_000)
        assert built == [2]
        # nor more than the CPUs the process may run on: pinned to one, no pool,
        # however many the machine has
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        rep = sweep(cfg, "b", [0.15, 0.45], out_dir=tmp_path, n_jobs=10_000)
        assert built == [2]
        assert [r.status for r in rep.rows] == ["ok", "ok"]
        # where the platform cannot say, the machine's CPUs; an unknown count means one
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rep = sweep(cfg, "b", [0.15, 0.3, 0.45], out_dir=tmp_path, n_jobs=3)
        assert built == [2, 2]
        assert [r.status for r in rep.rows] == ["ok", "ok", "ok"]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        sweep(cfg, "b", [0.15, 0.45], out_dir=tmp_path, n_jobs=2)
        assert built == [2, 2]

    def test_apply_param_variants(self, fig2_path):
        cfg = load_scenario(fig2_path)
        assert apply_param(cfg, "kappa", 2.0).params.kappa == 2.0
        assert apply_param(cfg, "intercept", 6.0).law.c0 == 6.0
        assert apply_param(cfg, "slope", 2.0).law.slope == 2.0
        assert apply_param(cfg, "T", 1.0).params.T_delay == 1.0
        # re-snap on delay change
        assert apply_param(cfg, "tau", 2.5).step == pytest.approx(0.01, rel=1e-12)

    def test_apply_param_runs_the_scenario_checks(self, fig2_path, tmp_path):
        cfg = load_scenario(fig2_path)
        with pytest.raises(ConfigError, match="ceiling"):
            apply_param(cfg, "t_end", 1e9)
        with pytest.raises(ConfigError, match="'step' must be finite"):
            apply_param(cfg, "step", math.inf)
        with pytest.raises(ConfigError, match="unknown scenario key"):
            apply_param(cfg, "T_delay", 1.0)
        # a tau that halves the snapped step doubles the step count past the ceiling
        long_cfg = apply_param(cfg, "t_end", 9e4)
        row = sweep(long_cfg, "tau", [2.015], out_dir=tmp_path).rows[0]
        assert row.status == "error" and "ceiling" in row.message

    def test_an_edit_that_puts_init_x_past_the_capacity_root_is_refused(self, fig2_path):
        # intercept 0.5 moves the capacity root below fig2's init_x = 1
        with pytest.raises(ConfigError) as refused:
            apply_param(load_scenario(fig2_path), "intercept", 0.5)
        assert str(refused.value) == ("intercept = 0.5: [run] init_x = 1.0 reaches the capacity "
                                      "root: g(1.0) = -0.5 <= 0")

    @pytest.mark.parametrize("key, value, message", [
        ("t_end", "auto", "[run] key 't_end' must be a number, got 'auto'"),
        ("grid_n", "auto", "[analysis] key 'grid_n' must be a number, got 'auto'"),
        ("init_x", (0.9, 1.2), "[run] key 'init_x' must be a number, got (0.9, 1.2)"),
        ("margin_range", 1.0,
         "[analysis] key 'margin_range' must be 'auto' or a pair of numbers, got 1.0"),
        ("intercept", "5", "[capacity] key 'intercept' must be a number, got '5'"),
        ("tol_conv", None, "[analysis] key 'tol_conv' must be a number, got None"),
        ("b", True, "[model] key 'b' must be a number, got True"),
        ("t_end", 2 ** 1024, f"[run] key 't_end' must be finite, got {2 ** 1024}"),
    ], ids=["t_end", "grid_n", "init_x", "margin_range", "intercept", "tol_conv", "b", "t_end-int"])
    def test_a_value_of_the_wrong_type_is_a_config_error(self, fig2_path, key, value, message):
        # both routes refuse it in one check, naming the key and the value's repr
        cfg = load_scenario(fig2_path)
        with pytest.raises(ConfigError) as edit:
            apply_param(cfg, key, value)
        assert str(edit.value) == f"{key} = {value}: {message}"
        values = {**config.config_values(cfg), key: value}
        with pytest.raises(ConfigError) as built:
            build_config(values, "here", "fig2")
        assert str(built.value) == f"here: {message}"

    @pytest.mark.parametrize("record, kwargs", [
        (CapacityLaw, {"c0": "5"}), (CapacityLaw, {"c0": True}),
        (CapacityLaw, {"c0": 5.0, "slope": False}),
        (ModelParams, {"kappa": 1.0, "a": 1.5, "b": True, "tau": 3.0, "T_delay": 2.0}),
        (ModelParams, {"kappa": 1.0, "a": 1.5, "b": 0.2, "tau": 3.0, "T_delay": 2.0,
                       "x_min": True}),
    ], ids=["c0-str", "c0-bool", "slope-bool", "b-bool", "x_min-bool"])
    def test_records_refuse_a_bool_or_a_string(self, record, kwargs):
        with pytest.raises(ModelDomainError):
            record(**kwargs)

    def test_apply_param_constant_law(self, tmp_path):
        text = MINIMAL.replace(
            "kind = affine\nintercept = 5.0\nslope = 1.0", "kind = constant\nlevel = 4.0"
        )
        cfg = load_scenario(write_scenario(tmp_path, text))
        assert apply_param(cfg, "intercept", 6.0).law == apply_param(cfg, "level", 6.0).law
        assert apply_param(cfg, "intercept", 6.0).law == CapacityLaw(6.0)
        # a slope turns the law affine
        assert apply_param(cfg, "slope", 1.0).law == CapacityLaw(4.0, 1.0)

    def test_apply_param_refuses_the_law_kind(self, fig2_path):
        # kind only spells a law in a file: refused before any other key is read
        cfg = load_scenario(fig2_path)
        message = "a law's kind is set only in a scenario file; apply slope = 0 for a constant law"
        with pytest.raises(ConfigError, match="^kind = constant: " + message):
            apply_param(cfg, "kind", "constant")
        with pytest.raises(ConfigError, match="^kind = constant: " + message):
            config.apply_params(cfg, {"kind": "constant", "level": 3.0})
        assert apply_param(cfg, "slope", 0.0).law == CapacityLaw(cfg.law.c0)

    def test_apply_param_slope_0_gives_the_constant_form(self, tmp_path):
        cfg = apply_param(load_scenario(write_scenario(tmp_path, MINIMAL)), "slope", 0.0)
        assert cfg.law == CapacityLaw(5.0)
        report = check_stability(cfg.params, cfg.law, (0.5, 2.0), cfg.grid_n)
        assert "\ncapacity: g(x) = 5 (constant)\n" in format_report(cfg, report)
        write_config_echo(cfg, tmp_path / "echo.scenario")
        assert "\n[capacity]\nkind = constant\nlevel = 5\n\n" in (
            tmp_path / "echo.scenario").read_text()


@pytest.mark.parametrize("result, lines", [
    ("fig2_result", ["margin_range: [0.9617792965, 1.229324221] grid_n=256",
                     "min_margin: 0.02818652221 at x=1.229324221", "final_error: 7.046141448e-12",
                     "tail_peak_to_peak: 2.767742702e-09", "settling_time: 21.67"]),
    ("fig1_result", ["margin_range: [0.852853361, 1.882879834] grid_n=256",
                     "min_margin: -0.7637916735 at x=1.882879834", "final_error: 6.216928404e-05",
                     "tail_peak_to_peak: 0.002485260035", "settling_time: 102.87"]),
])
def test_run_report_lines(request, result, lines):
    # the figures' report lines, as report.txt and `ratelab run` print them
    res = request.getfixturevalue(result)
    report = format_report(res.config, res.report, res.classification)
    for line in lines:
        assert f"\n{line}\n" in report


# Edits drawn for the parity test below: every key but kind, and one that is
# not a key; values that each check refuses, and values that pass.
_EDIT_KEYS = [f.key for f in FIELDS if f.key != "kind"] + ["T_delay"]
_EDIT_VALUES = [0, 0.0, -1, -0.5, math.nan, math.inf, -math.inf, 1, 2, 3, 16, 256, 0.007, 0.01,
                0.2, 0.5, 1.0, 1.5, 2.0, 2.015, 2.5, 3.0, 4.5, 200.0, 1e9, (0.9, 1.2), "auto",
                True, None, "5", 2 ** 1024]
_EDIT_BASES = {
    "fig2": load_scenario(SCENARIOS / "fig2.scenario"),
    "constant": build_config({"kappa": 1.0, "a": 1.5, "b": 0.2, "tau": 3.0, "T": 2.0,
                              "kind": CONSTANT, "level": 4.0, "init_x": 1.0,
                              "margin_range": (0.5, 2.0)}, "constant", "constant"),
}


def _edit_outcome(apply, cfg, changes):
    try:
        return repr(apply(cfg, changes))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("base", _EDIT_BASES)
@settings(deadline=None, max_examples=300)
@given(changes=st.lists(st.sampled_from(_EDIT_KEYS), min_size=1, max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: st.sampled_from(_EDIT_VALUES) for k in keys})))
# an unknown key is refused before a value is tested; non-finite values are
# reported in FIELDS order; a non-finite level is reported as the intercept
@example(changes={"b": math.nan, "T_delay": 1.0})
@example(changes={"t_end": math.nan, "b": -math.inf})
@example(changes={"level": math.inf})
def test_apply_params_matches_the_file_route(base, changes):
    cfg = _EDIT_BASES[base]
    assert (_edit_outcome(config.apply_params, cfg, changes)
            == _edit_outcome(reference_apply_params, cfg, changes))


# Drawn values for the keys whose default is not a number to scale (below).
# (tau, T) pairs and requested steps: some steps divide both delays, the
# others are snapped down.
_DRAWN = {
    "kappa": st.floats(0.1, 5.0),
    "a": st.floats(0.1, 3.0),
    "b": st.floats(0.05, 2.0),
    "kind": st.sampled_from([AFFINE, CONSTANT]),
    "intercept": st.floats(1.0, 10.0),
    "slope": st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
    "level": st.floats(1.0, 10.0),
    "init_x": st.floats(0.1, 10.0),
    "step": st.sampled_from([0.01, 0.02, 0.025, 0.007, 0.015, 0.03]),
    "margin_range": st.one_of(
        st.just("auto"), st.tuples(st.floats(0.01, 1.0), st.floats(1.5, 100.0))
    ),
}


@st.composite
def scenario_values(draw):
    """One value per key of FIELDS: a number with a default is drawn from
    [default/2, default], so a row that parse or echo drops shows."""
    values = {}
    for f in FIELDS:
        if f.key in ("tau", "T"):
            continue
        if f.key in _DRAWN:
            values[f.key] = draw(_DRAWN[f.key])
        else:
            values[f.key] = type(f.default)(f.default * draw(st.floats(0.5, 1.0)))
    values["tau"], values["T"] = draw(
        st.sampled_from([(3.0, 2.0), (0.5, 0.25), (1.0, 1.0), (2.0, 0.5)])
    )
    return values


@settings(deadline=None, max_examples=60)
@given(values=scenario_values())
def test_config_echo_round_trip(values):
    hi = values["margin_range"][1] if values["margin_range"] != "auto" else 0.0
    g_init, g_hi = (values["intercept"] - values["slope"] * x for x in (values["init_x"], hi))
    if values["kind"] == AFFINE and min(g_init, g_hi) <= 0:
        # an init_x, then a margin range, that reaches the capacity root is refused at load
        where = r"\[run\] init_x =" if g_init <= 0 else r"\[analysis\] margin_range \["
        with pytest.raises(ConfigError, match=f"{where}.* reaches the capacity root"):
            build_config(values, "drawn", "drawn")
        return
    cfg = build_config(values, "drawn", "drawn")
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.scenario", Path(tmp) / "second.scenario"
        write_config_echo(cfg, first)
        loaded = load_scenario(first)
        write_config_echo(loaded, second)
        echo, echo_again = first.read_text(), second.read_text()
    ignored = dict(name="", step_requested=0.0)
    assert loaded._replace(**ignored) == cfg._replace(**ignored)
    assert "out_dir" not in echo
    # a fixed point, except that the reloaded step is no longer snapped
    unsnapped = "".join(
        line for line in echo.splitlines(keepends=True)
        if not line.startswith("# step snapped down")
    )
    assert echo_again == unsnapped
    if cfg.step == cfg.step_requested:
        assert echo_again == echo


@st.composite
def rescaled_runs(draw):
    """A drawn model on a coarse grid with a horizon of at most 5000 steps,
    and a time scale s = 2**k for k in [-30, 30]."""
    step = draw(st.sampled_from([0.02, 0.025, 0.05, 0.1]))
    k_t = draw(st.integers(1, 60))
    values = {
        "kappa": 10.0 ** draw(st.floats(-0.5, 1.0)),
        "a": draw(st.floats(0.5, 3.0)),
        "b": draw(st.floats(0.05, 2.0)),
        "h": draw(st.floats(0.5, 2.0)),
        "tau": draw(st.integers(k_t, 120)) * step,
        "T": k_t * step,
        "kind": draw(st.sampled_from([AFFINE, CONSTANT])),
        "intercept": draw(st.floats(3.0, 10.0)),
        "slope": draw(st.floats(0.1, 2.0)),
        "level": draw(st.floats(1.0, 10.0)),
        "init_x": draw(st.floats(0.2, 1.5)),
        "step": step,
        "t_end": draw(st.integers(1000, 5000)) * step,
    }
    return values, 2.0 ** draw(st.integers(-30, 30))


def _outcome(values):
    try:
        return _execute(build_config(values, "drawn", "drawn"))
    except RatelabError as exc:
        return exc


@settings(max_examples=30, deadline=None)
@given(case=rescaled_runs())
@example(case=(dict(kappa=1.0, a=1.5, b=0.8, tau=3.0, T=2.0, kind=AFFINE, intercept=5.0,
                    slope=1.0, init_x=1.0, step=0.05, t_end=200.0), 0.5))  # fig1 at step 0.05
# fig2 just short of 10*tau: too short to tell a tail at every time scale
@example(case=(dict(kappa=1.0, a=1.5, b=0.2, tau=3.0, T=2.0, kind=AFFINE, intercept=5.0,
                    slope=1.0, init_x=1.0, step=0.01, t_end=29.9), 2.0 ** 27))
def test_time_rescaling_is_exact(case):
    # (kappa, tau, T, step, t_end) -> (s*kappa, tau/s, T/s, step/s, t_end/s)
    # is a symmetry of the model; with s a power of two every product the
    # loop forms is the base product times s or 1/s, so it holds bit for bit
    values, s = case
    scaled = {**values, "kappa": s * values["kappa"], "tau": values["tau"] / s,
              "T": values["T"] / s, "step": values["step"] / s, "t_end": values["t_end"] / s}
    base, other = _outcome(values), _outcome(scaled)
    assert type(other) is type(base)
    if isinstance(base, RatelabError):
        t_fail = getattr(base, "t_fail", None)
        assert getattr(other, "t_fail", None) == (None if t_fail is None else t_fail / s)
        return
    assert other.config.step == base.config.step / s
    assert np.array_equal(other.trajectory.x, base.trajectory.x)
    assert other.report.x_range == base.report.x_range
    assert other.report.min_margin == base.report.min_margin
    assert other.report.verdict == base.report.verdict
    assert other.classification.kind == base.classification.kind
    settling = base.classification.settling_time
    assert other.classification.settling_time == (None if settling is None else settling / s)


def _rate_scaled(cfg, lam):
    """The run of ``cfg`` with the rate rescaled, x -> lam*x.  c = g(x)
    scales with it, so kappa takes lam**(a+1) and h takes lam**-(a+1), and
    the intercept, the rate bounds, init_x and both tolerances take lam."""
    values = {**config.config_values(cfg), "step": cfg.step_requested}
    a1 = values["a"] + 1.0
    values.update(kappa=values["kappa"] * lam ** a1, h=values["h"] * lam ** -a1)
    for key in ("intercept", "x_min", "x_max", "init_x", "tol_conv", "tol_osc"):
        values[key] *= lam
    return _execute(build_config(values, "scaled", cfg.name))


@pytest.fixture(scope="module")
def flat_fig2_result(fig2_result):
    """fig2 started 1e-9 above x_star for 20 s: an envelope about 2e-9 wide."""
    x_star = fig2_result.report.equilibrium.x_star
    return _execute(fig2_result.config._replace(init_x=x_star + 1e-9, t_end=20.0))


@pytest.mark.parametrize("result", ["fig1_result", "fig2_result", "flat_fig2_result"])
@pytest.mark.parametrize("lam", [2.0, 0.5, 3.0])
def test_rate_rescaling_is_a_symmetry(request, result, lam):
    # not bit for bit: the powers of lam round, so the match is to a tolerance
    base = request.getfixturevalue(result)
    other = _rate_scaled(base.config, lam)
    a1 = base.config.params.a + 1.0
    np.testing.assert_allclose(other.trajectory.x / lam, base.trajectory.x, rtol=1e-13, atol=0)
    assert [x / lam for x in other.report.x_range] == pytest.approx(base.report.x_range, rel=1e-12)
    assert other.report.min_margin * lam ** a1 == pytest.approx(base.report.min_margin, rel=1e-12)
    assert other.report.verdict == base.report.verdict
    assert other.classification.kind == base.classification.kind
    assert other.classification.settling_time == base.classification.settling_time


def test_rate_rescaling_meets_the_absolute_a3_threshold(fig2_result):
    # A3's g > 1 does not scale with the rate: at lam = 0.1 fig2's capacity
    # falls to about 0.40, and a hard A3 violation flips the verdict while
    # the margin itself still scales
    other = _rate_scaled(fig2_result.config, 0.1)
    assert fig2_result.report.verdict == CERTIFIED
    assert other.report.verdict == NOT_CERTIFIED
    assert [(v.assumption, v.severity) for v in other.report.violations] == [
        ("A3", "hard"), ("A3", "warning")
    ]
    assert other.report.min_margin * 0.1 ** 2.5 == pytest.approx(
        fig2_result.report.min_margin, rel=1e-12)


def _spans_at_powers_of_ten(test):
    """@examples whose step candidate (hi - lo)/5 lies at, or one ulp either
    side of, a power of ten: there a last-bit difference between math.log10
    and numpy's log10 could change the floor."""
    for k in (-300, -7, -1, 0, 1, 7, 299):
        span = 5.0 * 10.0 ** k
        for hi in (math.nextafter(span, 0.0), span, math.nextafter(span, math.inf)):
            test = example(lo=0.0, hi=hi)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(allow_nan=False, allow_infinity=False),
       hi=st.floats(allow_nan=False, allow_infinity=False))
@example(lo=-0.3, hi=5.0)  # the first tick is -0.0, which the plot prints as "-0"
@_spans_at_powers_of_ten
def test_ticks_match_numpy_oracle(lo, hi):
    assume(lo != hi)  # a point is its own one tick
    lo, hi = min(lo, hi), max(lo, hi)
    try:
        with np.errstate(all="ignore"):
            expected = reference_ticks(lo, hi)
    except (ValueError, UnboundLocalError):  # numpy cannot size the tick range
        expected = None
    assume(expected is not None)
    assert [v.hex() for v in _ticks(lo, hi)] == [v.hex() for v in expected]
