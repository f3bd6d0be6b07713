"""Experiment harness: runs, metrics, verification, emission."""

import json
import math
import re
from dataclasses import replace

import pytest

from spikepid.harness import (
    ExperimentConfig,
    bench,
    compare,
    emit,
    load_config,
    run_step_response,
    step_experiment,
    sweep,
    verify_adder,
    write_summary_csv,
)


class TestRunStepResponse:
    def test_already_at_target_stays_quiet(self):
        cfg = step_experiment(setpoint=0.0, n=15, duration=3.0)
        trace, metrics = run_step_response(cfg)
        assert metrics.steady_state_error <= 0.005  # half a sensor quantum
        assert set(trace.u_bin) == {cfg.npid.output_grid.build().zero_index}

    def test_trace_has_one_row_per_tick(self):
        cfg = step_experiment(setpoint=1.0, duration=2.0)
        trace, _ = run_step_response(cfg)
        assert len(trace) == 140

    def test_settles_into_band(self):
        cfg = step_experiment(setpoint=1.5, n=151)
        _, metrics = run_step_response(cfg)
        assert metrics.settled
        assert metrics.settling_time <= 15.0

    def test_coarse_quadratic_settles_with_offset(self):
        cfg = step_experiment(setpoint=1.0, n=15, distribution="quadratic")
        _, metrics = run_step_response(cfg)
        assert metrics.settled
        assert metrics.steady_state_error < 0.2857  # inside one bin

    def test_baseline_controller_runs(self):
        cfg = step_experiment(setpoint=1.5, controller="baseline", duration=5.0)
        trace, metrics = run_step_response(cfg)
        assert set(trace.error_bin) == {-1}  # no bins for the baseline
        assert max(trace.z) > 1.0

    def test_metrics_sanity(self):
        cfg = step_experiment(setpoint=2.0, n=151)
        trace, m = run_step_response(cfg)
        assert m.rise_time >= 0
        assert m.overshoot >= 0
        assert m.overshoot == pytest.approx(
            max(0.0, max(trace.z) - cfg.setpoint))
        if m.settled:
            assert m.settling_time <= cfg.duration
        assert 0 <= m.saturation_fraction <= 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            run_step_response(step_experiment(duration=-1.0))

    @pytest.mark.parametrize("name,value", [
        ("controller", "pid"),
        ("duration", 0.0), ("duration", math.inf),
        ("rate", -70.0), ("rate", math.nan),
        ("physics_substeps", 0), ("physics_substeps", 10.0),
        ("setpoint", math.nan), ("setpoint", math.inf),
        ("sensor_quantum", 0.0), ("sensor_quantum", math.nan),
        ("sensor_window", 0), ("sensor_window", 1.5),
        ("battery_beta", -0.01), ("battery_beta", math.nan),
    ])
    def test_config_rejected_at_construction_by_field(self, name, value):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            replace(step_experiment(n=15), **{name: value})

    def test_battery_sag_pulls_altitude_down(self):
        from dataclasses import replace

        cfg = step_experiment(setpoint=1.5, n=151, duration=12.0)
        healthy, _ = run_step_response(cfg)
        sagging, _ = run_step_response(replace(cfg, battery_beta=0.05))
        # 0.05 N/s of sag is 0.6 N after 12 s; the integral range only
        # buys back 0.51 N, so the sagging run must end lower.
        assert sagging.z[-1] < healthy.z[-1] - 0.01
        assert sagging.thrust_total[-1] < healthy.thrust_total[-1]

    def test_sub_step_convergence(self):
        """Halving the physics step moves the 20 s final altitude by
        less than a millimeter."""
        from dataclasses import replace

        cfg = step_experiment(setpoint=1.5, n=151)
        t1, _ = run_step_response(replace(cfg, physics_substeps=10))
        t2, _ = run_step_response(replace(cfg, physics_substeps=20))
        assert abs(t1.z[-1] - t2.z[-1]) < 1e-3


class TestVerifyAdder:
    def test_small_uniform_exact(self):
        rep = verify_adder(15, "uniform", "nearest")
        assert rep.ok and rep.exact == 225 and rep.max_deviation == 0

    def test_float_exact_across_modes(self):
        for dist in ("uniform", "quadratic"):
            for mode in ("floor", "nearest"):
                rep = verify_adder(31, dist, mode)
                assert rep.ok, rep.summary()

    def test_quantized_quadratic_small_within_one_bin(self):
        rep = verify_adder(15, "quadratic", "nearest", quantized=True)
        assert rep.ok
        assert rep.within_one == rep.pairs

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            verify_adder(1002)

    def test_report_summary_format(self):
        rep = verify_adder(15, "uniform", "floor")
        assert "15" in rep.summary() and "OK" in rep.summary()


class TestBench:
    def test_reports_positive_throughput(self):
        rep = bench(ticks=20_000, latency_samples=2_000)
        assert rep.ticks_per_second > 0
        assert rep.mean_us > 0
        assert rep.p99_us >= rep.mean_us * 0.1

    def test_larger_network_is_not_meaningfully_faster(self):
        # Per-tick cost grows ~log(n), so the gap is small; best-of-three
        # runs and a generous factor keep scheduler noise out.
        from spikepid.controller import default_config

        def best(n):
            return max(bench(default_config(n=n), ticks=30_000,
                             latency_samples=100).ticks_per_second
                       for _ in range(3))

        assert best(15) >= best(151) * 0.8


class TestBatch:
    def test_sweep_row_count(self):
        rows = sweep([1.0, 2.0], [15, 63], duration=2.0)
        assert len(rows) == 4
        assert {r["n"] for r in rows} == {15, 63}

    def test_sweep_distribution_map_defaults_to_uniform(self):
        rows = sweep([1.0], [15, 31], distribution_for={15: "quadratic"},
                     duration=1.0)
        assert [(r["n"], r["distribution"]) for r in rows] == [
            (15, "quadratic"), (31, "uniform")]

    def test_empty_sweep(self):
        assert sweep([], [151]) == []
        assert sweep([1.0], []) == []

    def test_compare_produces_one_row_per_config(self):
        cfgs = [step_experiment(setpoint=2.0, duration=2.0),
                step_experiment(setpoint=2.0, controller="baseline",
                                duration=2.0)]
        rows = compare(cfgs)
        assert [r["controller"] for r in rows] == ["npid", "baseline"]

    def test_summary_csv(self, tmp_path):
        rows = sweep([1.0], [15], duration=2.0)
        p = tmp_path / "summary.csv"
        write_summary_csv(rows, p)
        lines = p.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("label,controller,setpoint")


class TestEmit:
    def test_csv_row_count_and_header(self, tmp_path):
        cfg = step_experiment(setpoint=1.0, duration=2.0)
        trace, _ = run_step_response(cfg)
        p = tmp_path / "trace.csv"
        emit(trace, "csv", p)
        lines = p.read_text().splitlines()
        assert lines[0] == ("t,z,vz,z_meas,target,error_bin,integral_bin,"
                            "deriv_bin,u_bin,u_newton,thrust_total")
        assert len(lines) == 141

    def test_re_emitting_is_byte_identical(self, tmp_path):
        cfg = step_experiment(setpoint=1.0, duration=2.0)
        trace, _ = run_step_response(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(trace, "csv", p1)
        emit(trace, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_svg_contains_polyline_and_band(self, tmp_path):
        cfg = step_experiment(setpoint=1.0, duration=2.0)
        trace, _ = run_step_response(cfg)
        p = tmp_path / "plot.svg"
        emit(trace, "svg", p, setpoint=1.0, band=0.05)
        text = p.read_text()
        assert text.count("<polyline") == 1
        assert "<rect" in text

    def test_unknown_format(self, tmp_path):
        trace, _ = run_step_response(step_experiment(duration=1.0))
        with pytest.raises(ValueError):
            emit(trace, "pdf", tmp_path / "x.pdf")


class TestConfigFile:
    def test_load_defaults_and_overrides(self, tmp_path):
        cfg_json = {
            "gains": {"kp": 0.9, "ti": 0.2, "td": 2.0},
            "grids": {"n": 31, "distribution": "quadratic",
                      "output": {"range": [-1.0, 1.0]}},
            "plant": {"mass": 0.5, "drag": 0.1},
            "sensor": {"quantum": 0.02, "window": 3},
            "experiment": {"setpoint": 2.5, "duration": 10.0, "decay": 0.9,
                           "controller": "npid"},
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg_json))
        cfg = load_config(p)
        assert cfg.npid.gains.kp == 0.9
        assert cfg.npid.output_grid.n == 31
        assert cfg.npid.output_grid.hi == 1.0
        assert cfg.plant.mass == 0.5
        assert cfg.sensor_quantum == 0.02
        assert cfg.setpoint == 2.5
        assert cfg.npid.decay == 0.9

    def test_empty_config_gives_stock_values(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("{}")
        cfg = load_config(p)
        assert cfg.npid.gains.kp == 0.87
        assert cfg.npid.target_grid.hi == 4.0
        assert cfg.rate == 70.0
        cfg.validate()

    @pytest.mark.parametrize("raw,name", [
        ({"plant": {"thrust_mx": 12.0}}, "plant.thrust_mx"),
        ({"experiment": {"setpiont": 2.0}}, "experiment.setpiont"),
        ({"grids": {"output": {"range": [-1, 1], "dist": "uniform"}}},
         "grids.output.dist"),
        ({"plnt": {"mass": 0.5}}, "plnt"),
    ])
    def test_unknown_key_or_section_rejected_by_name(self, tmp_path, raw, name):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=re.escape(name)):
            load_config(p)
