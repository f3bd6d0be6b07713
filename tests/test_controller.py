"""The composed spiking PID network."""

import hashlib
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from spikepid.controller import GridSpec, NpidConfig, build_npid, default_config
from spikepid.harness import step_experiment
from spikepid.reference import PidOracle
from spikepid.units import AdderUnit


class TestBuild:
    def test_neuron_accounting(self):
        for n, want_unit, want_input in [(15, 93, 45), (63, 381, 189),
                                         (151, 909, 453)]:
            net = build_npid(default_config(n=n))
            assert net.neuron_count() == (want_unit, want_input)

    def test_every_unit_is_2n_plus_1(self):
        net = build_npid(default_config(n=15))
        for unit in net.units:
            assert unit.neuron_count == 2 * unit.n_out + 1

    def test_identity_decay_recurrent_weights_equal_grid_values(self):
        net = build_npid(default_config(n=15, decay=1.0))
        assert net.integral_unit.weights[0] == list(net.grids.integral.values)

    def test_decay_scales_recurrent_weights(self):
        net = build_npid(default_config(n=15, decay=0.9))
        for w, v in zip(net.integral_unit.weights[0], net.grids.integral.values):
            assert w == 0.9 * v

    def test_control_unit_weights_carry_gains(self):
        cfg = default_config(n=15)
        net = build_npid(cfg)
        g = cfg.gains
        assert net.control_unit.weights[0] == [g.kp * v for v in net.grids.error.values]
        assert net.control_unit.weights[1] == [g.ki * v for v in net.grids.integral.values]
        assert net.control_unit.weights[2] == [g.kd * v for v in net.grids.derivative.values]

    def test_default_integral_range_saturates_output(self):
        cfg = default_config(n=15)
        grids = cfg.build_grids()
        # ki * integral_max == output ceiling
        assert cfg.gains.ki * grids.integral.hi == pytest.approx(1.25)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            build_npid(default_config(n=15, decay=0.0))
        with pytest.raises(ValueError):
            build_npid(default_config(n=15, dt=-1.0))
        with pytest.raises(ValueError):
            build_npid(default_config(n=1))
        with pytest.raises(ValueError):
            NpidConfig(mode="round").validate()


# A valid spec per grid field; the default config sizes the integral grid
# itself, so it gets an explicit one here.
GRID_FIELDS = {
    "target_grid": GridSpec(0.0, 4.0, 15),
    "error_grid": GridSpec(-4.0, 4.0, 15),
    "integral_grid": GridSpec(-1.0, 1.0, 15, "quadratic"),
    "derivative_grid": GridSpec(-0.5, 0.5, 15),
    "output_grid": GridSpec(-1.25, 1.25, 15),
}
BAD_GRID_VALUES = [("n", 15.5), ("n", 1), ("n", "15"), ("lo", math.nan),
                   ("hi", math.inf), ("lo", 5.0), ("distribution", "cubic")]


class TestConfigValidation:
    @pytest.mark.parametrize("name,value", [
        ("dt", math.nan), ("dt", 0.0), ("dt", -1.0), ("dt", math.inf),
        ("decay", 0.0), ("decay", 1.5), ("decay", math.nan),
        ("mode", "round"),
    ])
    def test_bad_scalar_rejected_by_name(self, name, value):
        cfg = replace(default_config(n=15), **{name: value})
        with pytest.raises(ValueError, match=f"^{name} "):
            build_npid(cfg)

    @pytest.mark.parametrize("grid", GRID_FIELDS)
    @pytest.mark.parametrize("attr,value", BAD_GRID_VALUES)
    def test_bad_grid_rejected_by_field(self, grid, attr, value):
        spec = replace(GRID_FIELDS[grid], **{attr: value})
        cfg = replace(default_config(n=15), **{grid: spec})
        with pytest.raises(ValueError, match=f"^{re.escape(f'{grid}.{attr}')} "):
            cfg.validate()
        with pytest.raises(ValueError, match=re.escape(f"{grid}.{attr}")):
            build_npid(cfg)

    def test_asymmetric_quadratic_grid_rejected_by_field(self):
        cfg = replace(default_config(n=15),
                      error_grid=GridSpec(-2.0, 4.0, 15, "quadratic"))
        with pytest.raises(ValueError, match=r"^error_grid\.lo "):
            build_npid(cfg)

    @pytest.mark.parametrize("grid,spec", [
        ("error_grid", GridSpec(-4.0, 4.0, 16)),
        ("integral_grid", GridSpec(0.5, 1.0, 15)),
        ("output_grid", GridSpec(-1.25, 1.25, 16)),
    ])
    def test_grid_without_zero_rejected_by_field(self, grid, spec):
        cfg = replace(default_config(n=15), **{grid: spec})
        with pytest.raises(ValueError, match=f"^{grid} must contain the value 0"):
            build_npid(cfg)

    @pytest.mark.parametrize("n", [15, 63, 151])
    @pytest.mark.parametrize("distribution", ["uniform", "quadratic"])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_closed_loop_configs_accepted(self, n, distribution, quantized):
        cfg = step_experiment(n=n, distribution=distribution,
                              quantized=quantized)
        cfg.npid.build_grids()


class TestStep:
    def test_zero_error_zero_output(self):
        net = build_npid(default_config(n=15))
        assert net.step(2.0, 2.0, 0.0) == 0.0

    def test_large_error_saturates_at_output_ceiling(self):
        net = build_npid(default_config(n=15))
        assert net.step(1.5, 0.0, 0.0) == 1.25

    def test_integral_accumulates_across_ticks(self):
        net = build_npid(default_config(n=151))
        z0 = net.grids.integral.zero_index
        for _ in range(30):
            net.step(3.0, 0.0, 0.0)
        assert net.integral_bin > z0

    def test_matches_oracle_free_running(self):
        cfg = default_config(n=63, decay=0.95)
        net = build_npid(cfg)
        net.record_raster(True, raster=False)
        oracle = PidOracle(net.grids, cfg.gains, cfg.dt, lam=cfg.decay,
                           mode=cfg.mode)
        st = oracle.fresh_state()
        rng = np.random.default_rng(5)
        for k in range(2000):
            t, y = rng.uniform(0, 4, 2)
            d = rng.uniform(-0.5, 0.5)
            net.step(t, y, d)
            assert oracle.step(st, t, y, d) == net.fetch_trace().output_bin[k]
            assert st.integral_bin == net.integral_bin

    @pytest.mark.parametrize("mode", ["floor", "nearest"])
    def test_matches_oracle_both_modes(self, mode):
        cfg = default_config(n=15, distribution="quadratic", mode=mode)
        net = build_npid(cfg)
        net.record_raster(True, raster=False)
        oracle = PidOracle(net.grids, cfg.gains, cfg.dt, lam=cfg.decay, mode=mode)
        st = oracle.fresh_state()
        rng = np.random.default_rng(6)
        for k in range(500):
            t, y = rng.uniform(0, 4, 2)
            d = rng.uniform(-0.5, 0.5)
            net.step(t, y, d)
            assert oracle.step(st, t, y, d) == net.fetch_trace().output_bin[k]


class TestReset:
    def test_reset_then_zero_inputs_is_zero(self):
        net = build_npid(default_config(n=15))
        for _ in range(100):
            net.step(3.5, 0.2, 0.4)
        net.reset()
        assert net.step(1.7, 1.7, 0.0) == 0.0

    def test_reset_is_idempotent(self):
        net = build_npid(default_config(n=15))
        net.step(3.0, 0.0, 0.0)
        net.reset()
        bin_after_one = net.integral_bin
        net.reset()
        assert net.integral_bin == bin_after_one == net.grids.integral.zero_index

    def test_reset_equals_fresh_network(self):
        cfg = default_config(n=31, decay=0.9)
        used = build_npid(cfg)
        for _ in range(200):
            used.step(3.0, 1.0, -0.3)
        used.reset()
        fresh = build_npid(cfg)
        used.record_raster(True, raster=False)
        fresh.record_raster(True, raster=False)
        rng = np.random.default_rng(9)
        for _ in range(200):
            t, y = rng.uniform(0, 4, 2)
            d = rng.uniform(-0.5, 0.5)
            used.step(t, y, d)
            fresh.step(t, y, d)
        a, b = used.fetch_trace(), fresh.fetch_trace()
        assert a.output_bin == b.output_bin
        assert a.integral_bin == b.integral_bin


class TestTraceLifecycle:
    def test_stop_keeps_trace_and_stops_appending(self):
        net = build_npid(default_config(n=15))
        net.record_raster(True)
        for _ in range(3):
            net.step(2.0, 0.5, 0.1)
        rows = len(net.fetch_trace().raster)
        net.record_raster(False)
        for _ in range(5):
            net.step(2.0, 0.5, 0.1)
        tr = net.fetch_trace()
        assert len(tr) == len(tr.error_bin) == 3
        assert len(tr.raster) == rows

    def test_reset_drops_trace(self):
        net = build_npid(default_config(n=15))
        net.record_raster(True, raster=False)
        net.step(2.0, 0.5, 0.1)
        net.reset()
        with pytest.raises(ValueError):
            net.fetch_trace()
        net.step(2.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            net.fetch_trace()


class TestWindUp:
    def test_integral_bin_never_leaves_grid(self):
        net = build_npid(default_config(n=15))
        top = net.grids.integral.n - 1
        for _ in range(1000):
            net.step(4.0, 0.0, 0.0)
            assert 0 <= net.integral_bin <= top
        assert net.integral_bin == top  # saturated, not wrapped

    def test_decay_drains_at_least_one_bin_per_tick_in_floor_mode(self):
        cfg = default_config(n=15, decay=0.9, mode="floor")
        net = build_npid(cfg)
        z = net.grids.integral.zero_index
        net.integral_bin = net.grids.integral.n - 1
        prev = net.integral_bin
        while prev != z:
            net.step(2.0, 2.0, 0.0)  # error pinned at the zero bin
            assert net.integral_bin <= prev - 1
            prev = net.integral_bin

    def test_saturation_output_stays_in_range(self):
        net = build_npid(default_config(n=15))
        lo, hi = net.grids.output.lo, net.grids.output.hi
        rng = np.random.default_rng(2)
        for _ in range(500):
            u = net.step(rng.uniform(0, 4), rng.uniform(0, 4),
                         rng.uniform(-2, 2))
            assert lo <= u <= hi


class TestQuantizedMode:
    def test_matches_quantization_aware_oracle(self):
        cfg = default_config(n=15, quantized=True, decay=0.9)
        net = build_npid(cfg)
        net.record_raster(True, raster=False)
        oracle = PidOracle(net.grids, cfg.gains, cfg.dt, lam=cfg.decay,
                           mode=cfg.mode, quantized=True)
        st = oracle.fresh_state()
        rng = np.random.default_rng(8)
        for k in range(2000):
            t, y = rng.uniform(0, 4, 2)
            d = rng.uniform(-0.5, 0.5)
            net.step(t, y, d)
            assert oracle.step(st, t, y, d) == net.fetch_trace().output_bin[k]

    def test_all_weight_tables_legal(self):
        net = build_npid(default_config(n=63, quantized=True))
        for unit in net.units:
            for row in unit.weights:
                assert all(isinstance(w, int) and -256 <= w <= 254
                           and w % 2 == 0 for w in row)


class TestTrace:
    def test_trace_records_every_tick(self):
        net = build_npid(default_config(n=15))
        net.record_raster(True, raster=False)
        for k in range(25):
            net.step(1.0, 0.5, 0.0)
        tr = net.fetch_trace()
        assert len(tr) == 25
        assert len(tr.raster) == 0

    def test_hover_trace_is_constant(self):
        net = build_npid(default_config(n=15))
        net.record_raster(True)
        for _ in range(10):
            net.step(2.0, 2.0, 0.0)
        tr = net.fetch_trace()
        assert set(tr.error_bin) == {net.grids.error.zero_index}
        assert set(tr.output_bin) == {net.grids.output.zero_index}

    def test_raster_rows_bounded_by_network_size(self):
        net = build_npid(default_config(n=15))
        net.record_raster(True)
        ticks = 20
        for _ in range(ticks):
            net.step(3.0, 0.5, 0.2)
        tr = net.fetch_trace()
        unit, inputs = net.neuron_count()
        per_tick = {}
        for tick, _, _ in tr.raster:
            per_tick[tick] = per_tick.get(tick, 0) + 1
        assert all(c <= unit + inputs for c in per_tick.values())
        assert len(per_tick) == ticks

    def test_raster_tick_names_one_reduce_per_unit_and_aggregate_prefixes(self):
        """Per tick and unit: one reduce row, naming the traced bin, and
        aggregate rows that are a prefix of one sub-population."""
        net = build_npid(default_config(n=15, quantized=True))
        net.record_raster(True)
        rng = np.random.default_rng(5)
        ticks = 30
        for _ in range(30):
            net.step(*rng.uniform(0.0, 4.0, 2), rng.uniform(-0.5, 0.5))
        tr = net.fetch_trace()
        bins = {"error": tr.error_bin, "integral": tr.integral_bin,
                "control": tr.output_bin}
        for tick in range(ticks):
            ids = [nid for t, nid, _ in tr.raster if t == tick]
            for unit in net.units:
                reduce = [i for i in ids if i.startswith(f"{unit.name}.reduce[")]
                assert reduce == [f"{unit.name}.reduce[{bins[unit.name][tick]}]"]
                pos = [i for i in ids if i.startswith(f"{unit.name}.agg_pos[")]
                neg = [i for i in ids if i.startswith(f"{unit.name}.agg_neg[")]
                assert bool(pos) != bool(neg)
                for group, fired in (("agg_pos", pos), ("agg_neg", neg)):
                    assert fired == [f"{unit.name}.{group}[{k}]"
                                     for k in range(len(fired))]

    def test_step_response_error_walks_to_zero_bin(self):
        # Simulated approach: measurement converges onto the target, so
        # the error bin trajectory must end at the zero bin.
        net = build_npid(default_config(n=15))
        net.record_raster(True, raster=False)
        for y in np.linspace(0.0, 1.5, 120):
            net.step(1.5, float(y), 0.0)
        tr = net.fetch_trace()
        z = net.grids.error.zero_index
        assert tr.error_bin[0] > z
        assert tr.error_bin[-1] == z

    def test_fetch_without_recording_raises(self):
        net = build_npid(default_config(n=15))
        with pytest.raises(ValueError):
            net.fetch_trace()

    def test_trace_csv_schema(self, tmp_path):
        net = build_npid(default_config(n=15))
        net.record_raster(True)
        net.step(1.0, 0.0, 0.0)
        p = tmp_path / "trace.csv"
        net.fetch_trace().write_csv(p)
        header = p.read_text().splitlines()[0]
        assert header == ("tick,t_seconds,error_bin,integral_bin,deriv_bin,"
                          "output_bin,output_newton")
        r = tmp_path / "raster.csv"
        net.fetch_trace().write_raster_csv(r)
        assert r.read_text().splitlines()[0] == "tick,neuron_id,layer"


# One SHA-256 over the trace and raster CSVs of every config below: 200
# recorded ticks after 20 unrecorded warm-up ticks, so the integral bin is
# off zero when recording starts.
RASTER_PIN_SHA256 = (
    "928495d87da45944a571ad8bfd3c66bb1570bb1d7935db9977874f090670bd87")


def _raster_pin_digest(tmp_path) -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(2021)
    for n, dist, quantized, mode in itertools.product(
            (15, 63, 151), ("uniform", "quadratic"), (False, True),
            ("floor", "nearest")):
        net = build_npid(default_config(n=n, distribution=dist,
                                        quantized=quantized, mode=mode))
        ticks = zip(rng.uniform(0.0, 4.0, 220).tolist(),
                    rng.uniform(0.0, 4.0, 220).tolist(),
                    rng.uniform(-0.5, 0.5, 220).tolist())
        for k, (t, y, d) in enumerate(ticks):
            if k == 20:
                net.record_raster(True)
            net.step(t, y, d)
        tr = net.fetch_trace()
        for write in (tr.write_csv, tr.write_raster_csv):
            p = tmp_path / "pin.csv"
            write(p)
            h.update(p.read_bytes())
    return h.hexdigest()


class TestRasterPin:
    def test_trace_and_raster_csvs_match_pinned_digest(self, tmp_path):
        assert _raster_pin_digest(tmp_path) == RASTER_PIN_SHA256


class TestRasterDerivation:
    def _recorded(self):
        net = build_npid(default_config(n=15))
        rng = np.random.default_rng(11)
        for _ in range(5):  # move the integral off zero before recording
            net.step(3.5, 0.5, 0.0)
        net.record_raster(True)
        for _ in range(30):
            net.step(*rng.uniform(0.0, 4.0, 2), rng.uniform(-0.5, 0.5))
        return net, net.fetch_trace()

    @pytest.mark.parametrize("column,unit", [
        ("error_bin", "error"), ("integral_bin", "integral"),
        ("output_bin", "control"),
    ])
    def test_edited_bin_raises_naming_unit_and_tick(self, column, unit):
        _, tr = self._recorded()
        bins = getattr(tr, column)
        bins[7] = bins[7] + 1 if bins[7] == 0 else bins[7] - 1
        with pytest.raises(AssertionError, match=f"'{unit}' at tick 7:"):
            tr.raster

    def test_edited_input_bin_raises_in_the_unit_it_feeds(self):
        _, tr = self._recorded()
        tr.target_bin[3] = 0 if tr.target_bin[3] > 7 else 14
        with pytest.raises(AssertionError, match="'error' at tick 3:"):
            tr.raster

    def test_held_trace_reads_same_rows_after_stop_and_reset(self):
        net, tr = self._recorded()
        rows = tr.raster
        assert len({t for t, _, _ in rows}) == len(tr) == 30
        net.record_raster(False)
        net.step(1.0, 3.0, 0.2)
        assert tr.raster == rows
        net.reset()
        net.record_raster(True)
        net.step(1.0, 3.0, 0.2)
        assert tr.raster == rows

    def test_every_read_reruns_each_unit_once(self, monkeypatch):
        _, tr = self._recorded()
        calls = []
        eval_bins = AdderUnit.eval_bins

        def counted(unit, bins):
            calls.append((unit.name, len(bins)))
            return eval_bins(unit, bins)

        monkeypatch.setattr(AdderUnit, "eval_bins", counted)
        first = tr.raster
        assert tr.raster == first
        assert calls == [("error", 30), ("integral", 30), ("control", 30)] * 2

    def test_empty_raster_trace_reads_empty(self, tmp_path):
        net = build_npid(default_config(n=15))
        net.record_raster(True)
        tr = net.fetch_trace()
        assert tr.raster == []
        p = tmp_path / "raster.csv"
        tr.write_raster_csv(p)
        assert p.read_text() == "tick,neuron_id,layer\n"
