"""Netlist export, serialization and graph re-evaluation."""

import json

import numpy as np
import pytest

from spikepid.controller import build_npid, default_config
from spikepid.grids import encode, make_grid
from spikepid.netlist import Netlist, NetlistRuntime, export_netlist
from spikepid.reference import round_to_grid
from spikepid.units import (LAYER_INPUT, NeuronSpec, SynapseSpec, build_adder,
                            eval_unit, one_hot)


def fig2_setup(quantized=False):
    g_in = make_grid(-1, 1, 3)
    g_out = make_grid(-2, 2, 5)
    unit = build_adder([(g_in, 1, 1.0), (g_in, 1, 1.0)], g_out,
                       mode="floor", quantized=quantized, name="adder")
    nl = export_netlist([unit], {"a": g_in, "b": g_in})
    return unit, nl


class TestExport:
    def test_fig2_neuron_counts(self):
        _, nl = fig2_setup()
        inputs = [n for n in nl.neurons if n.layer == "input"]
        units = [n for n in nl.neurons if n.layer != "input"]
        assert len(inputs) == 6   # 2 populations x 3
        assert len(units) == 11   # 6 aggregate + 5 reduce

    def test_quantized_weights_are_even_integers(self):
        _, nl = fig2_setup(quantized=True)
        for s in nl.synapses:
            assert s.weight == int(s.weight)
            assert -256 <= s.weight <= 254
            assert int(s.weight) % 2 == 0

    def test_empty_unit_list(self):
        nl = export_netlist([], {}, wiring=[])
        assert nl.neurons == [] and nl.synapses == []

    def test_npid_counts(self):
        net = build_npid(default_config(n=15, distribution="quadratic"))
        nl = net.export_netlist()
        inputs = [n for n in nl.neurons if n.layer == "input"]
        units = [n for n in nl.neurons if n.layer != "input"]
        assert len(inputs) == 45
        assert len(units) == 93

    def test_recurrent_edge_is_the_only_delay(self):
        net = build_npid(default_config(n=15))
        nl = net.export_netlist()
        delayed = {(s.src.split(".")[0], s.dst.split(".")[0])
                   for s in nl.synapses if s.delay == 1}
        assert delayed == {("integral", "integral")}

    def test_dangling_endpoint_rejected(self):
        _, nl = fig2_setup()
        nl.synapses.append(SynapseSpec("ghost[0]", nl.neurons[0].id, 2, 0))
        with pytest.raises(ValueError):
            nl.validate()

    def test_duplicate_ids_rejected(self):
        _, nl = fig2_setup()
        nl.neurons.append(nl.neurons[0])
        with pytest.raises(ValueError):
            nl.validate()

    def test_port_grid_size_mismatch_rejected(self):
        g3 = make_grid(-1, 1, 3)
        g5 = make_grid(-1, 1, 5)
        unit = build_adder([(g3, 1, 1.0)], g3, name="u")
        with pytest.raises(ValueError):
            export_netlist([unit], {"a": g5}, wiring=[[("input", "a", 0)]])


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        _, nl = fig2_setup(quantized=True)
        path = tmp_path / "net.json"
        nl.save(path)
        back = Netlist.load(path)
        assert back.neurons == nl.neurons
        assert back.synapses == nl.synapses
        assert back.meta == nl.meta

    def test_save_is_deterministic(self, tmp_path):
        net = build_npid(default_config(n=15, quantized=True))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        net.export_netlist().save(p1)
        build_npid(default_config(n=15, quantized=True)).export_netlist().save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_top_level_schema(self, tmp_path):
        _, nl = fig2_setup()
        path = tmp_path / "net.json"
        nl.save(path)
        d = json.loads(path.read_text())
        assert set(d) == {"neurons", "synapses", "meta"}
        assert {"scale", "grids", "mode"} <= set(d["meta"])
        assert d["meta"]["version"] == 2
        assert set(d["neurons"]) == {"id", "layer", "threshold"}
        assert set(d["synapses"]) == {"src", "dst", "weight", "delay"}
        assert d["neurons"]["id"] == [n.id for n in nl.neurons]
        assert all(type(k) is int for k in d["synapses"]["src"] + d["synapses"]["dst"])

    @pytest.mark.parametrize("quantized", [False, True])
    def test_full_n_round_trip(self, quantized, tmp_path):
        nl = build_npid(default_config(n=151, quantized=quantized)).export_netlist()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        nl.save(p1)
        back = Netlist.load(p1)
        assert back.neurons == nl.neurons
        assert back.synapses == nl.synapses
        assert back.meta == nl.meta
        if quantized:  # acceptance criterion 4, read through the file
            for s in back.synapses:
                assert isinstance(s.weight, int)
                assert -256 <= s.weight <= 254 and s.weight % 2 == 0
        back.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_v1_file_rejected(self, tmp_path):
        _, nl = fig2_setup()
        v1 = {"neurons": [{"id": n.id, "layer": n.layer, "threshold": n.threshold}
                          for n in nl.neurons],
              "synapses": [{"src": s.src, "dst": s.dst, "weight": s.weight,
                            "delay": s.delay} for s in nl.synapses],
              "meta": nl.meta}
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1))
        with pytest.raises(ValueError, match="meta.version"):
            Netlist.load(path)

    @pytest.mark.parametrize("field, edit", [
        ("synapses.src", lambda d: d["synapses"]["src"].__setitem__(0, 17)),
        ("synapses.dst", lambda d: d["synapses"]["dst"].__setitem__(3, -1)),
        ("synapses.src", lambda d: d["synapses"]["src"].__setitem__(0, 1.0)),
        ("synapses.delay", lambda d: d["synapses"]["delay"].pop()),
        ("synapses.delay", lambda d: d["synapses"]["delay"].__setitem__(0, 2)),
        ("neurons.threshold", lambda d: d["neurons"]["threshold"].append(1)),
        ("neurons.id", lambda d: d["neurons"]["id"].__setitem__(1, "a[0]")),
        ("meta.version", lambda d: d["meta"].__setitem__("version", 3)),
    ])
    def test_bad_columns_rejected_by_field(self, field, edit):
        _, nl = fig2_setup()
        d = nl.to_dict()
        Netlist.from_dict(d)  # the unedited dict loads
        edit(d)
        with pytest.raises(ValueError, match=field):
            Netlist.from_dict(d)


class TestRuntime:
    @pytest.mark.parametrize("quantized", [False, True])
    def test_single_unit_matches_eval_unit(self, quantized):
        unit, nl = fig2_setup(quantized=quantized)
        rt = NetlistRuntime(nl)
        for i in range(3):
            for j in range(3):
                out, _ = eval_unit(unit, [one_hot(3, i), one_hot(3, j)])
                winners = rt.step({"a": i, "b": j})
                assert winners["adder"] == int(np.flatnonzero(out)[0])

    @pytest.mark.parametrize("quantized", [False, True])
    def test_full_controller_matches_step(self, quantized):
        cfg = default_config(n=15, distribution="quadratic", decay=0.9,
                             quantized=quantized)
        net = build_npid(cfg)
        net.record_raster(True, raster=False)
        rt = NetlistRuntime(net.export_netlist())
        tm, dg = net.grids.target_measurement, net.grids.derivative
        rng = np.random.default_rng(3)
        for k in range(200):
            t = rng.uniform(0, 4)
            y = rng.uniform(0, 4)
            d = rng.uniform(-0.5, 0.5)
            net.step(t, y, d)
            w = rt.step({"target": encode(tm, t), "measurement": encode(tm, y),
                         "derivative": encode(dg, d)})
            tr = net.fetch_trace()
            assert w["error"] == tr.error_bin[k]
            assert w["integral"] == tr.integral_bin[k]
            assert w["control"] == tr.output_bin[k]

    def test_reload_reproduces_bit_exactly(self, tmp_path):
        cfg = default_config(n=15, decay=0.85)
        net = build_npid(cfg)
        net.record_raster(True, raster=False)
        path = tmp_path / "net.json"
        net.export_netlist().save(path)
        rt = NetlistRuntime(Netlist.load(path))
        tm, dg = net.grids.target_measurement, net.grids.derivative
        for k, (t, y, d) in enumerate([(1.5, 0.0, 0.0), (1.5, 0.4, -0.2),
                                       (1.5, 1.2, 0.5), (1.5, 1.6, 0.1)]):
            net.step(t, y, d)
            w = rt.step({"target": encode(tm, t), "measurement": encode(tm, y),
                         "derivative": encode(dg, d)})
            tr = net.fetch_trace()
            assert (w["error"], w["integral"], w["control"]) == (
                tr.error_bin[k], tr.integral_bin[k], tr.output_bin[k])


def random_stimuli(net, ticks, seed):
    """Seeded controller inputs and the stimuli that encode them."""
    tm, dg = net.grids.target_measurement, net.grids.derivative
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(ticks):
        t, y = rng.uniform(0, 4, 2).tolist()
        d = float(rng.uniform(-0.5, 0.5))
        out.append(((t, y, d), {"target": encode(tm, t), "measurement": encode(tm, y),
                                "derivative": encode(dg, d)}))
    return out


def replay(rt, stimuli):
    return [rt.step(s) for _, s in stimuli]


class TestGraphRuntime:
    @pytest.mark.parametrize("quantized", [False, True])
    def test_full_n_controller_matches_step(self, quantized):
        net = build_npid(default_config(n=151, decay=0.9, quantized=quantized))
        net.record_raster(True, raster=False)
        rt = NetlistRuntime(net.export_netlist())
        for k, (x, s) in enumerate(random_stimuli(net, 2000, seed=11)):
            net.step(*x)
            w = rt.step(s)
            tr = net.fetch_trace()
            assert (w["error"], w["integral"], w["control"]) == (
                tr.error_bin[k], tr.integral_bin[k], tr.output_bin[k]), k

    @pytest.mark.parametrize("quantized", [False, True])
    def test_adder_all_pairs_replay_from_file(self, quantized, tmp_path):
        g_in = make_grid(-1.25, 1.25, 63)
        g_out = make_grid(-2.5, 2.5, 125)
        unit = build_adder([(g_in, 1, 1.0), (g_in, 1, 1.0)], g_out,
                           quantized=quantized, name="check")
        path = tmp_path / "adder.json"
        export_netlist([unit], {"a": g_in, "b": g_in}).save(path)
        rt = NetlistRuntime(Netlist.load(path))
        got = np.array([[rt.step({"a": i, "b": j})["check"] for j in range(63)]
                        for i in range(63)])
        assert np.array_equal(got, unit.eval_all_pairs())
        if not quantized:
            vals = np.asarray(g_in.values)
            want = round_to_grid(g_out, vals[:, None] + vals[None, :], "nearest")
            assert np.array_equal(got, want)

    def test_opaque_ids_replay_unchanged(self):
        net = build_npid(default_config(n=15, decay=0.9))
        nl = net.export_netlist()
        rename = {}
        for n in nl.neurons:
            if n.layer != LAYER_INPUT:
                rename[n.id] = f"x{len(rename)}"
        opaque = Netlist(
            neurons=[NeuronSpec(rename.get(n.id, n.id), n.layer, n.threshold)
                     for n in nl.neurons],
            synapses=[SynapseSpec(rename.get(s.src, s.src), rename.get(s.dst, s.dst),
                                  s.weight, s.delay) for s in nl.synapses],
            meta=nl.meta)
        stimuli = random_stimuli(net, 300, seed=4)
        assert replay(NetlistRuntime(opaque), stimuli) == replay(NetlistRuntime(nl), stimuli)

    def test_zero_delay_cycle_rejected_at_construction(self):
        nl = build_npid(default_config(n=15)).export_netlist()

        def with_back_edge(delay):
            edge = SynapseSpec("control.reduce[0]", "error.agg_pos[0]", 2, delay)
            return Netlist(nl.neurons, nl.synapses + [edge], nl.meta)

        NetlistRuntime(with_back_edge(1))  # a delayed back edge is legal
        with pytest.raises(ValueError, match="cycle"):
            NetlistRuntime(with_back_edge(0))

    def test_reset_equals_fresh_runtime(self):
        net = build_npid(default_config(n=15, decay=0.9))
        nl = net.export_netlist()
        used = NetlistRuntime(nl)
        replay(used, random_stimuli(net, 100, seed=1))
        used.reset()
        stimuli = random_stimuli(net, 100, seed=2)
        assert replay(used, stimuli) == replay(NetlistRuntime(nl), stimuli)

    def test_reduce_without_one_winner_raises(self):
        _, nl = fig2_setup()
        silent = [NeuronSpec(n.id, n.layer, 99) if n.layer == "reduce" else n
                  for n in nl.neurons]
        rt = NetlistRuntime(Netlist(silent, nl.synapses, nl.meta))
        with pytest.raises(AssertionError, match="0 winners"):
            rt.step({"a": 1, "b": 1})

    def test_bad_stimulus_rejected_and_state_kept(self):
        _, nl = fig2_setup()
        rt = NetlistRuntime(nl)
        rt.step({"a": 2, "b": 2})
        for bad in ({"a": 0, "ghost": 1}, {"a": 3, "b": 0}, {"a": -1, "b": 0}):
            with pytest.raises(ValueError):
                rt.step(bad)
        fresh = NetlistRuntime(nl)
        fresh.step({"a": 2, "b": 2})
        assert rt.step({"a": 0, "b": 1}) == fresh.step({"a": 0, "b": 1})
