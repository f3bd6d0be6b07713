"""The composed spiking PID network."""

import hashlib
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikepid.controller import (_CACHED_CONFIGS, GridSpec, NpidConfig, _tables,
                                 build_npid, default_config)
from spikepid.grids import make_grid
from spikepid.harness import cosimulate, step_experiment
from spikepid.reference import PidGains, PidOracle
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
        with pytest.raises(ValueError, match=f"^{name} "):
            build_npid(replace(default_config(n=15), **{name: value}))

    @pytest.mark.parametrize("name,value", [
        ("dt", 0), ("decay", 0), ("mode", "round"), ("quantized", "yes"),
    ])
    def test_bare_config_rejected_at_construction(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} "):
            NpidConfig(**{name: value})

    @pytest.mark.parametrize("grid", GRID_FIELDS)
    @pytest.mark.parametrize("attr,value", BAD_GRID_VALUES)
    def test_bad_grid_rejected_by_field(self, grid, attr, value):
        spec = replace(GRID_FIELDS[grid], **{attr: value})
        with pytest.raises(ValueError, match=f"^{re.escape(f'{grid}.{attr}')} "):
            replace(default_config(n=15), **{grid: spec})
        with pytest.raises(ValueError, match=re.escape(f"{grid}.{attr}")):
            build_npid(replace(default_config(n=15), **{grid: spec}))

    @pytest.mark.parametrize("spec", [
        *(replace(GRID_FIELDS["target_grid"], **{attr: value})
          for attr, value in BAD_GRID_VALUES),
        GridSpec(-2.0, 4.0, 15, "quadratic"),
    ])
    def test_make_grid_shares_the_grid_spec_rules(self, spec):
        with pytest.raises(ValueError) as field_error:
            spec.validate("target_grid")
        with pytest.raises(ValueError) as grid_error:
            make_grid(spec.lo, spec.hi, spec.n, spec.distribution)
        assert f"target_grid.{grid_error.value}" == str(field_error.value)

    def test_asymmetric_quadratic_grid_rejected_by_field(self):
        with pytest.raises(ValueError, match=r"^error_grid\.lo "):
            build_npid(replace(default_config(n=15),
                               error_grid=GridSpec(-2.0, 4.0, 15, "quadratic")))

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

    @pytest.mark.parametrize("unit,port,reads,field,fields,weight", [
        ("error", "target", "1", "target_grid",
         dict(target_grid=GridSpec(0.0, 300.0, 15)), 300.0),
        ("integral", "integral", "decay", "integral_grid",
         dict(decay=0.92, integral_grid=GridSpec(-300, 300, 15)), 276.0),
        ("control", "derivative", "kp*td", "derivative_grid",
         dict(gains=PidGains(kp=1.0, td=600.0)), 300.0),
    ])
    def test_quantized_weight_past_the_range_rejected_at_construction(
            self, unit, port, reads, field, fields, weight):
        """A quantized port whose largest weight, |gain| times its source
        grid's largest |value|, passes 254 leaves no scale >= 1, so the
        config is refused when constructed, by unit, port and the fields
        to change.  With float weights the same config builds."""
        msg = (f"quantized: {unit} unit port '{port}' ({reads} * {field}) "
               f"reaches weight {weight} > 254")
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            default_config(n=15, quantized=True, **fields)
        build_npid(default_config(n=15, **fields))

    def test_largest_weight_at_the_range_edge_builds(self):
        net = build_npid(default_config(n=15, quantized=True,
                                        target_grid=GridSpec(0.0, 254.0, 15)))
        assert net.error_unit.scale == 1

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([3, 5, 15]), kp=st.floats(0.05, 3.0),
           ti=st.floats(0.2, 20.0), td=st.floats(0.0, 1.0), rate=st.floats(20.0, 400.0),
           decay=st.floats(0.5, 1.0), ends=st.lists(st.floats(0.1, 400.0), min_size=5,
                                                    max_size=5))
    def test_a_quantized_config_that_constructs_builds(self, n, kp, ti, td, rate,
                                                       decay, ends):
        """The construction check is the whole of choose_scale's: a quantized
        config either is refused naming a port, or builds."""
        t, e, i, d, o = ends
        try:
            cfg = NpidConfig(gains=PidGains(kp, ti, td), dt=1.0 / rate, decay=decay,
                             quantized=True, target_grid=GridSpec(0.0, t, n),
                             error_grid=GridSpec(-e, e, n), integral_grid=GridSpec(-i, i, n),
                             derivative_grid=GridSpec(-d, d, n), output_grid=GridSpec(-o, o, n))
        except ValueError as err:
            assert str(err).startswith("quantized: ")
            return
        build_npid(cfg)


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
        report = cosimulate(default_config(n=63, decay=0.95), 2000, 5, against=("oracle",))
        assert report.ok, report.summary()

    @pytest.mark.parametrize("mode", ["floor", "nearest"])
    def test_matches_oracle_both_modes(self, mode):
        report = cosimulate(default_config(n=15, distribution="quadratic", mode=mode),
                            500, 6, against=("oracle",))
        assert report.ok, report.summary()

    @pytest.mark.parametrize("name", ["target", "measurement", "derivative"])
    def test_nan_input_rejected_by_name_before_any_state_changes(self, name):
        net = build_npid(default_config(n=15))
        net.record_raster(True, raster=False)
        net.step(3.0, 0.0, 0.0)
        before = (net.integral_bin, len(net.fetch_trace()))
        inputs = {"target": 1.0, "measurement": 0.5, "derivative": 0.0, name: math.nan}
        with pytest.raises(ValueError, match=f"^{name} must not be NaN, got nan$"):
            net.step(**inputs)
        assert (net.integral_bin, len(net.fetch_trace())) == before

    def test_infinite_inputs_clamp_to_the_end_bins(self):
        net = build_npid(default_config(n=15))
        net.record_raster(True, raster=False)
        net.step(math.inf, -math.inf, -math.inf)
        net.step(-math.inf, math.inf, math.inf)
        tr = net.fetch_trace()
        assert (tr.target_bin, tr.measurement_bin, tr.deriv_bin) == ([14, 0], [0, 14], [0, 14])


def _bits(net):
    """What a network's config fixes and a table shared with the wrong
    config would get wrong, as float.hex strings so the sign of a zero
    counts: the target grid's lo, the control unit's weights and the
    exported netlist's input grids."""
    def hexed(xs):
        return [float(x).hex() for x in xs]
    return (float(net.grids.target_measurement.lo).hex(),
            [hexed(w) for w in net.control_unit.weights],
            {pop: (float(g["lo"]).hex(), hexed(g["values"]))
             for pop, g in net.export_netlist().meta["grids"].items()})


def _act(net, action):
    """Apply one scripted action: a tick (t, y, d), "reset", or a
    record_raster (on, raster) pair."""
    if action == "reset":
        net.reset()
    elif len(action) == 2:
        net.record_raster(*action)
    else:
        net.step(*action)


def _state(net):
    tr = net.fetch_trace()
    return (net.integral_bin, tr.integral_start, tr.target_bin, tr.measurement_bin,
            tr.error_bin, tr.integral_bin, tr.deriv_bin, tr.output_bin,
            tr.output_newton, tr.raster)


class TestSharedTables:
    """Networks of one config share what the config fixes and keep their
    own integral state and trace."""

    @pytest.mark.parametrize("pair", [
        (default_config(n=15, target_grid=GridSpec(0.0, 4.0, 15)),
         default_config(n=15, target_grid=GridSpec(-0.0, 4.0, 15))),
        (default_config(n=15, gains=PidGains(td=0.0)),
         default_config(n=15, gains=PidGains(td=-0.0))),
    ], ids=["target_grid.lo", "gains.td"])
    def test_signed_zeros_never_share_tables(self, pair):
        """The two configs compare and hash equal but differ in the sign
        of a zero; built one after the other, in either order, each
        network carries the bits of its own config, as built alone."""
        assert pair[0] == pair[1] and hash(pair[0]) == hash(pair[1])
        alone = []
        for cfg in pair:
            _tables.cache_clear()
            bits = _bits(build_npid(cfg))
            lo = float(cfg.target_grid.lo).hex()
            assert bits[0] == bits[2]["target"][0] == bits[2]["measurement"][0] == lo
            assert bits[1][2] == [float(cfg.gains.kd * v).hex()
                                  for v in cfg.derivative_grid.build().values]
            alone.append(bits)
        assert alone[0] != alone[1]
        for order in (0, 1), (1, 0):
            _tables.cache_clear()
            nets = [build_npid(pair[k]) for k in order]
            assert [_bits(net) for net in nets] == [alone[k] for k in order]

    def test_networks_of_one_config_share_tables_not_state(self):
        """Two networks of one config, driven on interleaved scripts
        (ticks, raster on and off, reset), each end as a network built
        alone from a cold cache does on its own script."""
        cfg = default_config(n=15, decay=0.9)
        rng = np.random.default_rng(17)

        def ticks(k):
            return list(zip(rng.uniform(0, 4, k).tolist(), rng.uniform(0, 4, k).tolist(),
                            rng.uniform(-0.5, 0.5, k).tolist()))

        scripts = ([*ticks(30), (True, True), *ticks(40), (False, True), *ticks(5)],
                   [(True, True), *ticks(25), "reset", *ticks(10), (True, False),
                    *ticks(20), (True, True), *ticks(20)])
        nets = build_npid(cfg), build_npid(cfg)
        assert nets[0] is not nets[1]
        for name in ("grids", "_inputs", "_ports", "units", "_err_map", "_int_map"):
            assert getattr(nets[0], name) is getattr(nets[1], name), name
        assert all(row.readonly for row in nets[0]._err_map + nets[0]._int_map)
        for actions in itertools.zip_longest(*scripts):
            for net, action in zip(nets, actions):
                if action is not None:
                    _act(net, action)
        for net, script in zip(nets, scripts):
            _tables.cache_clear()
            alone = build_npid(cfg)
            assert alone._err_map is not net._err_map
            for action in script:
                _act(alone, action)
            assert _state(net) == _state(alone)

    @pytest.mark.parametrize("field, value", [
        ("decay", 0.8), ("mode", "floor"), ("quantized", True),
        ("error_grid", GridSpec(-4.0, 4.0, 17)),
    ])
    def test_config_differing_in_one_field_gets_its_own_tables(self, field, value):
        cfg = default_config(n=15, decay=0.9)
        other = replace(cfg, **{field: value})
        base, net = build_npid(cfg), build_npid(other)
        for name in ("grids", "units", "_err_map", "_int_map"):
            assert getattr(net, name) is not getattr(base, name), name
        assert net.config is other
        assert net.integral_unit.inputs[0].gain == other.decay
        assert {u.mode for u in net.units} == {other.mode}
        assert {u.quantized for u in net.units} == {other.quantized}
        assert net.grids.error.n == other.error_grid.n

    def test_more_configs_than_the_cache_holds_build_correct_networks(self):
        """Cycling through more configs than the cache holds evicts every
        one before its next build; each rebuilt network still ticks as
        the oracle does from its own config."""
        cfgs = [default_config(n=7, decay=1 - k / 64) for k in range(_CACHED_CONFIGS + 3)]
        _tables.cache_clear()
        for _ in range(2):
            for cfg in cfgs:
                net = build_npid(cfg)
                oracle = PidOracle(cfg.build_grids(), cfg.gains, cfg.dt, lam=cfg.decay,
                                   mode=cfg.mode)
                st = oracle.fresh_state()
                for t, y, d in ((3.5, 0.5, 0.0),) * 20 + ((0.5, 3.0, 0.3),) * 20:
                    assert oracle.step(st, t, y, d) == net.grids.output.values.index(
                        net.step(t, y, d))
                    assert st.integral_bin == net.integral_bin
        info = _tables.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2 * len(cfgs), _CACHED_CONFIGS)


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

    @pytest.mark.parametrize("n, distribution, quantized, size, max_abs", [
        (151, "uniform", False, 23, 0.00215),
        (151, "quadratic", False, 23, 0.00215),
        (151, "uniform", True, 15, 0.00514),
        (63, "uniform", False, 23, 0.0126),
        (15, "uniform", False, 15, 0.1),
    ])
    def test_integral_parking_set_of_the_step_experiment(self, n, distribution,
                                                         quantized, size, max_abs):
        """The integral bins the loop can settle on with no error left:
        how many and how far from zero, and a parked integral stays put
        under a zero error.  At N=15 every bin parks."""
        net = build_npid(step_experiment(n=n, distribution=distribution,
                                         quantized=quantized).npid)
        parked = net.integral_parking_set
        values = net.grids.integral.values
        assert len(parked) == size
        assert net.grids.integral.zero_index in parked
        assert max(abs(values[i]) for i in parked) == pytest.approx(max_abs, rel=1e-3)
        for i in range(net.grids.integral.n):
            net.integral_bin = i
            net.step(2.0, 2.0, 0.0)  # error at the zero bin
            assert (net.integral_bin == i) == (i in parked)

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
        report = cosimulate(default_config(n=15, quantized=True, decay=0.9), 2000, 8,
                            against=("oracle",))
        assert report.ok, report.summary()

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

    def test_thrust_column_reads_the_output_bins(self):
        net = build_npid(default_config(n=15))
        net.record_raster(True, raster=False)
        thrust = [net.step(1.0, y, 0.0) for y in (0.0, 0.5, 1.5, 3.0)]
        tr = net.fetch_trace()
        assert tr.output_newton == thrust
        with pytest.raises(AttributeError):
            tr.output_newton = []

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
