"""Netlist export, serialization and graph re-evaluation."""

import hashlib
import itertools
import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikepid.controller import build_npid, default_config
from spikepid.grids import encode, make_grid
from spikepid.netlist import Netlist, NetlistRuntime, Neurons, Synapses, export_netlist
from spikepid.reference import round_to_grid
from spikepid.units import LAYER_INPUT, build_adder, eval_unit, one_hot


AB_WIRING = [[("input", "a", 0), ("input", "b", 0)]]  # one unit adding a and b


def fig2_setup(quantized=False):
    g_in = make_grid(-1, 1, 3)
    g_out = make_grid(-2, 2, 5)
    unit = build_adder([(g_in, 1, 1.0), (g_in, 1, 1.0)], g_out,
                       mode="floor", quantized=quantized, name="adder")
    nl = export_netlist([unit], {"a": g_in, "b": g_in}, AB_WIRING)
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
        assert list(nl.neurons) == [] and list(nl.synapses) == []

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
        ids = nl.neurons.id
        delayed = {(ids[s.src].split(".")[0], ids[s.dst].split(".")[0])
                   for s in nl.synapses if s.delay == 1}
        assert delayed == {("integral", "integral")}

    def test_dangling_endpoint_rejected(self):
        _, nl = fig2_setup()
        for name, value in zip(Synapses.Row._fields, (len(nl.neurons), 0, 2, 0)):
            # a source one past the last neuron
            setattr(nl.synapses, name, np.append(getattr(nl.synapses, name), value))
        with pytest.raises(ValueError, match="synapses.src"):
            nl.validate()

    def test_duplicate_ids_rejected(self):
        _, nl = fig2_setup()
        for name, col in vars(nl.neurons).items():
            setattr(nl.neurons, name, np.append(col, col[0]))
        with pytest.raises(ValueError, match="neurons.id"):
            nl.validate()

    def test_columns_are_typed(self):
        for quantized, number in ((False, np.float64), (True, np.int16)):
            nl = build_npid(default_config(n=15, quantized=quantized)).export_netlist()
            assert [col.dtype for col in vars(nl.synapses).values()] == [
                np.int32, np.int32, number, np.int8]
            assert nl.neurons.id.dtype.kind == nl.neurons.layer.dtype.kind == "U"
            assert nl.neurons.threshold.dtype.kind == ("i" if quantized else "f")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["synapses.weight", "neurons.threshold"])
    def test_non_finite_weight_or_threshold_rejected_naming_its_row(self, column, bad):
        """A unit with one weight (input b's last bin, into every
        aggregate neuron) or one threshold not finite exports nothing: the
        error names the column and its first bad row."""
        unit, clean = fig2_setup()
        ids = clean.neurons.id.tolist()
        if column == "synapses.weight":
            unit._weight_arrs[1][2] = bad
            row = int(np.flatnonzero(clean.synapses.src == ids.index("b[2]"))[0])
        else:
            unit.thr_pos[1] = bad
            row = ids.index("adder.agg_pos[1]")
        with pytest.raises(ValueError, match=rf"{column} row {row} is -?(nan|inf),"):
            export_netlist([unit], {"a": unit.inputs[0].grid, "b": unit.inputs[1].grid},
                           AB_WIRING)

    def test_port_grid_size_mismatch_rejected(self):
        g3 = make_grid(-1, 1, 3)
        g5 = make_grid(-1, 1, 5)
        unit = build_adder([(g3, 1, 1.0)], g3, name="u")
        with pytest.raises(ValueError):
            export_netlist([unit], {"a": g5}, wiring=[[("input", "a", 0)]])


class TestSerialization:
    def test_file_round_trip(self, tmp_path):
        _, nl = fig2_setup(quantized=True)
        path = tmp_path / "net.npz"
        nl.save(path)
        back = Netlist.load(path)
        assert back.neurons == nl.neurons
        assert back.synapses == nl.synapses
        assert back.meta == nl.meta

    def test_save_is_deterministic(self, tmp_path):
        net = build_npid(default_config(n=15, quantized=True))
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
        net.export_netlist().save(p1)
        build_npid(default_config(n=15, quantized=True)).export_netlist().save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_top_level_schema(self, tmp_path):
        _, nl = fig2_setup()
        path = tmp_path / "net"
        nl.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["net"]  # no ".npz" added
        with np.load(path, allow_pickle=False) as z:
            d = dict(z)
        assert set(d) == {"meta", "neurons.id", "neurons.layer", "neurons.threshold",
                          "synapses.src", "synapses.dst", "synapses.weight",
                          "synapses.delay"}
        assert d["meta"].shape == () and d["meta"].dtype.kind == "U"
        meta = json.loads(d["meta"].item())
        assert {"scale", "grids", "mode"} <= set(meta)
        assert meta["version"] == 3
        assert d["neurons.id"].tolist() == [n.id for n in nl.neurons]
        assert d["synapses.src"].dtype == d["synapses.dst"].dtype == np.int32
        assert d["synapses.delay"].dtype == np.int8
        assert d["synapses.weight"].dtype == np.float64

    @pytest.mark.parametrize("quantized", [False, True])
    def test_full_n_round_trip(self, quantized, tmp_path):
        nl = build_npid(default_config(n=151, quantized=quantized)).export_netlist()
        p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
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

    def test_v2_json_and_pickled_column_rejected(self, tmp_path):
        _, nl = fig2_setup()
        v2 = {"meta": {**nl.meta, "version": 2},
              **{section: {name: col.tolist() for name, col in vars(table).items()}
                 for section, table in (("neurons", nl.neurons),
                                        ("synapses", nl.synapses))}}
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(v2))
        with pytest.raises(ValueError, match="meta.version"):
            Netlist.load(path)
        path = tmp_path / "pickled.npz"
        nl.neurons.layer = nl.neurons.layer.astype(object)
        nl.save(path)
        with pytest.raises(ValueError, match="neurons.layer"):
            Netlist.load(path)

    @pytest.mark.parametrize("field, edit", [
        ("synapses.src", lambda d: d["synapses.src"].__setitem__(0, 17)),
        ("synapses.dst", lambda d: d["synapses.dst"].__setitem__(3, -1)),
        ("synapses.src", lambda d: d.__setitem__("synapses.src",
                                                 d["synapses.src"] + 0.0)),
        ("synapses.delay", lambda d: d.__setitem__("synapses.delay",
                                                   d["synapses.delay"][:-1])),
        ("synapses.delay", lambda d: d["synapses.delay"].__setitem__(0, 2)),
        ("neurons.threshold", lambda d: d.__setitem__(
            "neurons.threshold", np.append(d["neurons.threshold"], 1))),
        ("neurons.id", lambda d: d["neurons.id"].__setitem__(1, "a[0]")),
        ("meta.version", lambda d: d.__setitem__("meta", np.array(json.dumps(
            {**json.loads(d["meta"].item()), "version": 2})))),
    ])
    def test_bad_columns_rejected_by_field(self, field, edit, tmp_path):
        """Edit one array of a saved file and write it back: load rejects
        it naming the field."""
        _, nl = fig2_setup()
        path = tmp_path / "net.npz"
        nl.save(path)
        assert Netlist.load(path) == nl  # the unedited file loads
        with np.load(path, allow_pickle=False) as z:
            d = dict(z)
        edit(d)
        with open(path, "wb") as f:
            np.savez(f, **d)
        with pytest.raises(ValueError, match=field):
            Netlist.load(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["synapses.weight", "neurons.threshold"])
    def test_non_finite_value_rejected_naming_its_row(self, column, bad, tmp_path):
        """A saved N=15 controller with bad values in two rows of one column:
        load names the column and the first of them."""
        path = tmp_path / "net.npz"
        build_npid(default_config(n=15)).export_netlist().save(path)
        with np.load(path, allow_pickle=False) as z:
            d = dict(z)
        row = len(d[column]) // 2
        d[column][[row + 5, row]] = bad
        with open(path, "wb") as f:
            np.savez(f, **d)
        with pytest.raises(ValueError, match=rf"{column} row {row} is -?(nan|inf),"):
            Netlist.load(path)


    @pytest.mark.parametrize("bad", [9999, 3, 256, -258])
    def test_quantized_weight_outside_criterion_4_rejected_naming_its_row(
            self, bad, tmp_path):
        """A saved quantized N=15 controller with an odd or out-of-range
        integer weight in two rows: load names the first of them."""
        path = tmp_path / "net.npz"
        build_npid(default_config(n=15, quantized=True)).export_netlist().save(path)
        with np.load(path, allow_pickle=False) as z:
            d = dict(z)
        row = len(d["synapses.weight"]) // 2
        d["synapses.weight"][[row + 5, row]] = bad
        with open(path, "wb") as f:
            np.savez(f, **d)
        with pytest.raises(ValueError, match=rf"synapses.weight row {row} is {bad}, "
                                             r"not an even integer in \[-256, 254\]"):
            Netlist.load(path)


NETLIST_PIN_SHA256 = (
    "6466314b7b1a056cdac04f9904c6c16fb9b2d56b5f7632e52c8a63ad3546077d")


class TestFilePin:
    def test_saved_bytes_match_pinned_digest_and_reload(self, tmp_path):
        """One SHA-256 over the files of 8 configs, in a fixed order; each
        file also survives load and save byte for byte."""
        h = hashlib.sha256()
        path = tmp_path / "net.npz"
        for n, dist, quantized in itertools.product(
                (151, 15), ("uniform", "quadratic"), (False, True)):
            build_npid(default_config(n=n, distribution=dist, quantized=quantized)
                       ).export_netlist().save(path)
            data = path.read_bytes()
            h.update(data)
            Netlist.load(path).save(path)
            assert path.read_bytes() == data, (n, dist, quantized)
        assert h.hexdigest() == NETLIST_PIN_SHA256


NETLIST_CONTENT_SHA256 = (
    "e810063d9e37ca0316b593d06c1e0701f9a8ba9a7d9a1c0338a46beecbca8e22")


def hash_columns(h, table) -> None:
    """Each column of a netlist table by name, kind and values, read
    through row iteration (Python scalars): strings as UTF-8, an "int"
    column (every value an int) as int64 bytes, else "float" as float64."""
    rows = list(table)
    for name, values in zip(table.Row._fields, zip(*rows) if rows else
                            [()] * len(table.Row._fields)):
        if all(isinstance(v, str) for v in values):
            kind, data = "str", "\n".join(values).encode()
        elif all(isinstance(v, int) for v in values):
            kind, data = "int", np.array(values, dtype=np.int64).tobytes()
        else:
            kind, data = "float", np.array(values, dtype=np.float64).tobytes()
        h.update(f"{name}:{kind}:{len(values)}\n".encode())
        h.update(data)


class TestContentPin:
    def test_columns_match_pinned_digest_through_the_file(self, tmp_path):
        """One SHA-256 over every column's name, kind and values for
        TestFilePin's 8 configs, as exported and as loaded back: it is
        independent of the file format."""
        path = tmp_path / "net"
        digests = []
        for load in (False, True):
            h = hashlib.sha256()
            for n, dist, quantized in itertools.product(
                    (151, 15), ("uniform", "quadratic"), (False, True)):
                nl = build_npid(default_config(n=n, distribution=dist,
                                               quantized=quantized)).export_netlist()
                if load:
                    nl.save(path)
                    nl = Netlist.load(path)
                hash_columns(h, nl.neurons)
                hash_columns(h, nl.synapses)
            digests.append(h.hexdigest())
        assert digests == [NETLIST_CONTENT_SHA256] * 2


def file_order_sum(weights):
    """Left to right from 0.0, as the units and the file order add."""
    s = 0.0
    for w in weights:
        s += w
    return s


def summing_netlist(sources, weights, relay):
    """One two-bin input population per weight; bin 1 of population
    sources[k] carries weights[k] (in file order) into the sum S.  The
    two-neuron reduce unit "u" picks bin 1 iff S >= 0.5.  Without relay
    its neurons take S and -S directly (thresholds 0.5 and -0.5), so the
    summing level has two neurons; with relay, S goes into a one-neuron
    level whose spike the unit reads."""
    k = len(weights)
    ids = [f"p{i}[{b}]" for i in range(k) for b in (0, 1)]
    layers, thresholds = [LAYER_INPUT] * len(ids), [0] * len(ids)
    first = len(ids)
    hot = [2 * s + 1 for s in sources]
    if relay:
        ids += ["sum", "u.reduce[0]", "u.reduce[1]"]
        layers += ["aggregate-pos", "reduce", "reduce"]
        thresholds += [0.5, 0, 1]
        cols = ([*hot, first, first], [first] * k + [first + 1, first + 2],
                [*weights, -2, 2], [0] * (k + 2))
    else:
        ids += ["u.reduce[0]", "u.reduce[1]"]
        layers += ["reduce", "reduce"]
        thresholds += [-0.5, 0.5]
        cols = (hot + hot, [first] * k + [first + 1] * k,
                [-w for w in weights] + list(weights), [0] * (2 * k))
    grid = make_grid(0, 1, 2).to_dict()
    meta = {"grids": {f"p{i}": grid for i in range(k)},
            "unit_outputs": {"u": {"n": 2}}}
    return Netlist(Neurons(ids, layers, thresholds), Synapses(*cols), meta)


class TestSumOrderPin:
    """Each neuron adds its active in-edges in file order: these sums give
    a different winner in another order, so the winners pin the order."""

    @pytest.mark.parametrize("sources", list(itertools.permutations(range(3))))
    @pytest.mark.parametrize("weights", [(1e16, 1.0, -1e16), (1.0, 1e16, -1e16)])
    def test_three_in_edges(self, sources, weights):
        assert {file_order_sum(p) >= 0.5
                for p in itertools.permutations(weights)} == {False, True}
        rt = NetlistRuntime(summing_netlist(sources, weights, relay=False))
        for active in itertools.product((0, 1), repeat=3):
            s = file_order_sum(w for w, a in zip(weights, active) if a)
            stim = {f"p{i}": active[sources.index(i)] for i in range(3)}
            assert rt.step(stim) == {"u": int(s >= 0.5)}, active

    @pytest.mark.parametrize("sources", [range(11), range(10, -1, -1)])
    def test_more_than_eight_in_edges_into_one_neuron(self, sources):
        """numpy sums 8 or more terms of one axis pairwise, which gives 8
        here; the file order gives 0."""
        sources = list(sources)
        weights = [2.0 ** 53] + [1.0] * 9 + [-2.0 ** 53]
        assert file_order_sum(weights) == 0.0
        assert float(np.sum(weights)) == 8.0
        rt = NetlistRuntime(summing_netlist(sources, weights, relay=True))
        rng = np.random.default_rng(5)
        for active in [[1] * 11, [1] * 10 + [0], [0] + [1] * 10,
                       *rng.integers(0, 2, (20, 11)).tolist()]:
            s = file_order_sum(w for w, a in zip(weights, active) if a)
            stim = {f"p{i}": active[sources.index(i)] for i in range(11)}
            assert rt.step(stim) == {"u": int(s >= 0.5)}, active


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
        path = tmp_path / "net.npz"
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
        path = tmp_path / "adder.npz"
        export_netlist([unit], {"a": g_in, "b": g_in}, AB_WIRING).save(path)
        rt = NetlistRuntime(Netlist.load(path))
        got = np.array([[rt.step({"a": i, "b": j})["check"] for j in range(63)]
                        for i in range(63)])
        assert np.array_equal(got, unit.eval_all_pairs())
        if not quantized:
            vals = np.asarray(g_in.values)
            want = round_to_grid(g_out, vals[:, None] + vals[None, :], "nearest")
            assert np.array_equal(got, want)

    def test_opaque_ids_replay_unchanged(self):
        """Every neuron renamed, input neurons included: the runtime finds
        neurons by their place in the layer, not by id."""
        net = build_npid(default_config(n=15, decay=0.9))
        nl = net.export_netlist()
        opaque = Netlist(
            neurons=Neurons([f"x{k}" for k in range(len(nl.neurons))],
                            nl.neurons.layer, nl.neurons.threshold),
            synapses=nl.synapses,  # endpoints are indices, not ids
            meta=nl.meta)
        stimuli = random_stimuli(net, 300, seed=4)
        assert replay(NetlistRuntime(opaque), stimuli) == replay(NetlistRuntime(nl), stimuli)

    def test_zero_delay_cycle_rejected_at_construction(self):
        nl = build_npid(default_config(n=15)).export_netlist()

        ids = nl.neurons.id.tolist()

        def with_back_edge(delay):
            edge = (ids.index("control.reduce[0]"), ids.index("error.agg_pos[0]"), 2, delay)
            return with_synapses(nl, edge)

        NetlistRuntime(with_back_edge(1))  # a delayed back edge is legal
        with pytest.raises(ValueError, match="cycle"):
            NetlistRuntime(with_back_edge(0))

    @pytest.mark.parametrize("n", [15, 151])
    def test_event_count_equals_raster_fan_out(self, n):
        """events counts the synapses whose source spiked in the derived
        raster this tick (delay 0) or the tick before (delay 1)."""
        net = build_npid(default_config(n=n, decay=0.9))
        nl = net.export_netlist()
        rt = NetlistRuntime(nl)
        net.record_raster(True)
        events = []
        for x, s in random_stimuli(net, 300, seed=8):
            net.step(*x)
            rt.step(s)
            events.append(rt.events)
        index = {nid: k for k, nid in enumerate(nl.neurons.id)}
        spiked = np.zeros((301, len(index)), dtype=bool)  # row 0: before tick 0
        for t, nid, _ in net.fetch_trace().raster:
            spiked[t + 1, index[nid]] = True
        src, delay = nl.synapses.src, nl.synapses.delay.astype(int)  # int8 would wrap
        want = [int(spiked[t + 1 - delay, src].sum()) for t in range(300)]
        assert events == want
        assert min(want) > 0

    @pytest.mark.parametrize("column", ["src", "dst", "delay"])
    def test_out_of_range_column_rejected_by_runtime(self, column):
        _, nl = fig2_setup()
        getattr(nl.synapses, column)[0] = len(nl.neurons)
        with pytest.raises(ValueError, match=f"synapses.{column}"):
            NetlistRuntime(nl)

    @pytest.mark.parametrize("outputs, name", [
        ({"adder": [1, 2]}, "meta.unit_outputs.adder"),
        ({"adder": {"n": "5"}}, "meta.unit_outputs.adder"),
        ({"adder": {}}, "meta.unit_outputs.adder"),
        ([5], "meta.unit_outputs"),
        (5, "meta.grids"),
        ([{"n": 3}], "meta.grids"),
        ({"a": 3, "b": 3}, "meta.grids.a"),
        ({"a": {"n": 3}, "b": {"n": True}}, "meta.grids.b"),
    ])
    def test_unit_outputs_that_are_not_grids_rejected_by_name(self, outputs, name):
        """meta.unit_outputs and meta.grids (the key name gives) are
        checked alike, at init, before any tick can trip on them."""
        _, nl = fig2_setup()
        key = name.split(".")[1]
        with pytest.raises(ValueError, match=f"^{name} must be an object"):
            NetlistRuntime(Netlist(nl.neurons, nl.synapses, {**nl.meta, key: outputs}))

    @pytest.mark.parametrize("key, grids, message", [
        ("grids", {"a": {"n": 3}}, "meta.grids has 3 bins but the netlist has 6 input"),
        ("grids", {}, "meta.grids has 0 bins but the netlist has 6 input"),
        ("unit_outputs", {"adder": {"n": 4}},
         "meta.unit_outputs has 4 bins but the netlist has 5 reduce"),
    ], ids=["grids-short", "grids-empty", "unit_outputs-short"])
    def test_grid_sizes_that_miss_the_layer_rejected(self, key, grids, message):
        _, nl = fig2_setup()
        with pytest.raises(ValueError, match=f"^{message} neurons$"):
            NetlistRuntime(Netlist(nl.neurons, nl.synapses, {**nl.meta, key: grids}))

    def test_reset_equals_fresh_runtime(self):
        net = build_npid(default_config(n=15, decay=0.9))
        nl = net.export_netlist()
        used = NetlistRuntime(nl)
        replay(used, random_stimuli(net, 100, seed=1))
        used.reset()
        stimuli = random_stimuli(net, 100, seed=2)
        assert replay(used, stimuli) == replay(NetlistRuntime(nl), stimuli)

    @pytest.mark.parametrize("quantized", [False, True])
    def test_runtime_keeps_under_half_a_megabyte(self, quantized):
        """An N=151 runtime keeps one weight per row of its broadcast
        levels and its reduce levels' synapses: not a block of sources x
        neurons, which came to 1.4 MB."""
        nl = build_npid(default_config(n=151, quantized=quantized)).export_netlist()
        tracemalloc.start()
        try:
            rt = NetlistRuntime(nl)  # held while its memory is read
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 0.5e6

    def test_reduce_without_one_winner_raises(self):
        _, nl = fig2_setup()
        silent = Neurons(nl.neurons.id, nl.neurons.layer,
                         [99 if n.layer == "reduce" else n.threshold for n in nl.neurons])
        rt = NetlistRuntime(Netlist(silent, nl.synapses, nl.meta))
        with pytest.raises(AssertionError, match="0 winners"):
            rt.step({"a": 1, "b": 1})

    def test_reduce_without_one_winner_is_named_by_its_unit(self):
        """All units' winners come from one read; the error still names
        the unit at fault, here the middle one of three."""
        nl = build_npid(default_config(n=15, decay=0.9)).export_netlist()
        silent = Neurons(nl.neurons.id, nl.neurons.layer,
                         [99 if n.id.startswith("integral.reduce[") else n.threshold
                          for n in nl.neurons])
        rt = NetlistRuntime(Netlist(silent, nl.synapses, nl.meta))
        assert list(nl.meta["unit_outputs"]) == ["error", "integral", "control"]
        with pytest.raises(AssertionError,
                           match="^unit 'integral' reduce produced 0 winners$"):
            rt.step({"target": 7, "measurement": 3, "derivative": 7})

    def test_bad_stimulus_rejected_and_state_kept(self):
        _, nl = fig2_setup()
        rt = NetlistRuntime(nl)
        rt.step({"a": 2, "b": 2})
        for pop, b in (("ghost", 1), ("a", 3), ("a", -1), ("a", "1"), ("a", 1.0),
                       ("a", True)):
            with pytest.raises(ValueError, match=re.escape(
                    f"stimulus {pop!r} bin {b!r} names no input neuron")):
                rt.step({"a": 0, "b": 0, pop: b})
        fresh = NetlistRuntime(nl)
        fresh.step({"a": 2, "b": 2})
        assert rt.step({"a": 0, "b": 1}) == fresh.step({"a": 0, "b": 1})
        assert rt.step({"a": np.int64(2), "b": 1}) == fresh.step({"a": 2, "b": 1})
        assert rt.step({"a": 1, "b": 0}) == fresh.step({"a": 1, "b": 0})

    @pytest.mark.parametrize("left_out", [
        pops for k in (1, 2, 3)
        for pops in itertools.combinations(("target", "measurement", "derivative"), k)])
    def test_population_left_out_rejected_and_state_kept(self, left_out):
        """Every input population is one-hot: leaving one out raises and
        names it, and the tick that follows equals a fresh runtime's."""
        net = build_npid(default_config(n=15, decay=0.9))
        nl = net.export_netlist()
        (_, before), (_, after) = random_stimuli(net, 2, seed=6)
        rt, fresh = NetlistRuntime(nl), NetlistRuntime(nl)
        assert rt.step(before) == fresh.step(before)
        partial = {pop: b for pop, b in after.items() if pop not in left_out}
        with pytest.raises(ValueError, match="leave out") as err:
            rt.step(partial)
        assert all(repr(pop) in str(err.value) for pop in left_out)
        assert rt.step(after) == fresh.step(after)
        assert rt.events == fresh.events


def with_synapses(nl, *rows, first=False):
    """nl with the synapse rows (src, dst, weight, delay) added at the end
    of the file, or at its start."""
    cols = [list(col) for col in vars(nl.synapses).values()]
    for col, extra in zip(cols, zip(*rows)):
        col[:] = [*extra, *col] if first else [*col, *extra]
    return Netlist(nl.neurons, Synapses(*cols), nl.meta)


def conflicting_orders(k, weight):
    """Neuron n_j takes p_j before p_(j+1) mod k: each pair of sources is
    ordered one way by one neuron, and the cycle closes at the last."""
    ids = [f"p{i}[{b}]" for i in range(k) for b in (0, 1)] + [f"n{j}" for j in range(k)]
    neurons = Neurons(ids, ["input"] * 2 * k + ["reduce"] * k, [0] * 3 * k)
    edges = [(2 * ((j + e) % k) + 1, 2 * k + j, weight, 0) for j in range(k) for e in (0, 1)]
    grid = make_grid(0, 1, 2).to_dict()
    return Netlist(neurons, Synapses(*map(list, zip(*edges))),
                   {"grids": {f"p{i}": grid for i in range(k)},
                    "unit_outputs": {"u": {"n": k}}})


def summing_units(weights, orders):
    """One two-bin input population per weight; bin 1 of population i
    carries weights[i].  Unit u{j} takes the populations in file order
    orders[j].  As in summing_netlist, its neurons take the sum S_j and
    -S_j (thresholds 0.5 and -0.5), so it picks bin 1 iff S_j >= 0.5."""
    m = len(weights)
    ids = [f"p{i}[{b}]" for i in range(m) for b in (0, 1)]
    edges = []
    for j, order in enumerate(orders):
        neg, pos = len(ids), len(ids) + 1
        ids += [f"u{j}.reduce[0]", f"u{j}.reduce[1]"]
        edges += [(2 * i + 1, dst, sign * weights[i], 0)
                  for dst, sign in ((neg, -1), (pos, 1)) for i in order]
    neurons = Neurons(ids, [LAYER_INPUT] * 2 * m + ["reduce"] * 2 * len(orders),
                      [0] * 2 * m + [-0.5, 0.5] * len(orders))
    grid = make_grid(0, 1, 2).to_dict()
    meta = {"grids": {f"p{i}": grid for i in range(m)},
            "unit_outputs": {f"u{j}": {"n": 2} for j in range(len(orders))}}
    return Netlist(neurons, Synapses(*map(list, zip(*edges))), meta)


def check_rotated_units(weights, k):
    """k units over the same sources, unit j taking them from source j on,
    wrapping round, so two units take some pair of sources in opposite
    orders.  They pick different bins when every source fires, so no one
    order of the sources serves them all; on every activity pattern each
    unit's bin is that of the file-order sum of its active in-edges."""
    m = len(weights)
    orders = [[(j + e) % m for e in range(m)] for j in range(k)]
    assert len({file_order_sum(weights[i] for i in order) >= 0.5
                for order in orders}) == 2
    rt = NetlistRuntime(summing_units(weights, orders))
    for active in itertools.product((0, 1), repeat=m):
        want = {f"u{j}": int(file_order_sum(weights[i] for i in order if active[i]) >= 0.5)
                for j, order in enumerate(orders)}
        assert rt.step({f"p{i}": a for i, a in enumerate(active)}) == want, active


def relayed_pair(weights, x1_edges):
    """Three two-bin input populations; bin 1 of population i carries
    weights[i] into neuron x0 (threshold 0.5), and x1 (threshold -0.5)
    takes x1_edges, (population, weight) pairs, in file order.  x0 and x1
    make one level; unit u_j relays x_j, picking bin 1 iff it fires."""
    ids = [f"p{i}[{b}]" for i in range(3) for b in (0, 1)] + ["x0", "x1"]
    ids += [f"u{j}.reduce[{b}]" for j in (0, 1) for b in (0, 1)]
    neurons = Neurons(ids, [LAYER_INPUT] * 6 + ["aggregate-pos"] * 2 + ["reduce"] * 4,
                      [0] * 6 + [0.5, -0.5] + [0, 1] * 2)
    edges = [(2 * i + 1, 6, w, 0) for i, w in enumerate(weights)]
    edges += [(2 * i + 1, 7, w, 0) for i, w in x1_edges]
    edges += [(6 + j, 8 + 2 * j + b, 4 * b - 2, 0) for j in (0, 1) for b in (0, 1)]
    grid = make_grid(0, 1, 2).to_dict()
    return Netlist(neurons, Synapses(*map(list, zip(*edges))),
                   {"grids": {f"p{i}": grid for i in range(3)},
                    "unit_outputs": {"u0": {"n": 2}, "u1": {"n": 2}}})


class TestRowOrder:
    """A level is broadcast only if its neurons take the same rows in one
    shared file order, each with the weights of the first times its sign.
    Any other level is replayed synapse by synapse, and each neuron still
    adds its active in-edges in file order."""

    def test_out_of_order_sum_past_2_53_replays_in_file_order(self):
        """A decoy neuron first in the file takes p1 and p2 only, so the
        level is not broadcast; summed in the order the sources first
        appear (p1, p2, p0) the unit's weights would pick the other bin."""
        weights = (1.0, 1e16, -1e16)
        assert file_order_sum(weights) < 0.5 <= file_order_sum(weights[1:] + weights[:1])
        nl = summing_netlist([0, 1, 2], weights, relay=False)
        decoy = len(nl.neurons)
        nl = Netlist(Neurons(np.append(nl.neurons.id, "decoy"),
                             np.append(nl.neurons.layer, "aggregate-pos"),
                             np.append(nl.neurons.threshold, 0)), nl.synapses, nl.meta)
        nl = with_synapses(nl, (3, decoy, 1.0, 0), (5, decoy, 1.0, 0), first=True)
        rt = NetlistRuntime(nl)
        for active in itertools.product((0, 1), repeat=3):
            s = file_order_sum(w for w, a in zip(weights, active) if a)
            assert rt.step({f"p{i}": a for i, a in enumerate(active)}) == {
                "u": int(s >= 0.5)}, active

    @pytest.mark.parametrize("k", [2, 3])
    def test_conflicting_source_orders_with_integer_weights_build(self, k):
        """Neurons that take their sources in conflicting orders make a
        level that is not broadcast: it builds, and replays per synapse."""
        NetlistRuntime(conflicting_orders(k, 1.0))

    @pytest.mark.parametrize("in_edges", [3, 11])
    def test_integer_sums_past_2_53_replay_in_file_order(self, in_edges):
        """Integer weights whose partial sums pass 2**53 and round: the
        two units take the same in-edges from different starts and pick
        different bins, each its own file-order one."""
        weights = [2.0 ** 53] + [1.0] * (in_edges - 2) + [-2.0 ** 53]
        check_rotated_units(weights, 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_conflicting_source_orders_replay_in_file_order(self, k):
        """k units over three sources, each from another start: the
        weights sum to 1 in one order and 0 in the others."""
        check_rotated_units((1e16, -1e16, 1.0), k)

    @pytest.mark.parametrize("miss", ["ulp", "missing", "order"])
    def test_near_broadcast_level_replays_per_synapse(self, miss):
        """x0 takes W from p0, p1, p2 and x1 takes -W, but x1 misses a
        broadcast level one way: one weight one ulp off its negation, the
        synapse from p1 left out, or p1 and p2 taken in the other order
        (its weights still -W in file order).  On some activity x1's own
        file-order sum and -1 times x0's pick different bins; each unit
        follows its own neuron's sum."""
        weights = (2.0 ** 53, 1.0, -2.0 ** 53)
        x1 = {"ulp": [(0, -weights[0]), (1, -np.nextafter(1.0, 2.0)), (2, -weights[2])],
              "missing": [(0, -weights[0]), (2, -weights[2])],
              "order": [(0, -weights[0]), (2, -weights[1]), (1, -weights[2])]}[miss]
        rt = NetlistRuntime(relayed_pair(weights, x1))
        apart = False
        for active in itertools.product((0, 1), repeat=3):
            s0 = file_order_sum(w for w, a in zip(weights, active) if a)
            s1 = file_order_sum(w for i, w in x1 if active[i])
            apart |= (-s0 >= -0.5) != (s1 >= -0.5)
            assert rt.step({f"p{i}": a for i, a in enumerate(active)}) == {
                "u0": int(s0 >= 0.5), "u1": int(s1 >= -0.5)}, active
        assert apart

    def test_source_feeding_a_neuron_twice_rejected(self):
        _, nl = fig2_setup()
        ids = nl.neurons.id.tolist()
        a0, pos0 = ids.index("a[0]"), ids.index("adder.agg_pos[0]")
        NetlistRuntime(with_synapses(nl, (a0, pos0, 2, 1)))  # once per delay is legal
        with pytest.raises(ValueError, match=r"neuron 'adder\.agg_pos\[0\]' has two "
                                             r"synapses from 'a\[0\]' with delay 0"):
            NetlistRuntime(with_synapses(nl, (a0, pos0, 2, 0)))


class TestReplayProperty:
    @given(n=st.integers(min_value=2, max_value=15).map(lambda k: 2 * k + 1),
           distribution=st.sampled_from(["uniform", "quadratic"]),
           quantized=st.booleans(),
           mode=st.sampled_from(["floor", "nearest"]),
           decay=st.floats(min_value=0.5, max_value=1.0, exclude_min=True),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=100, deadline=None)  # about 3 s
    def test_replay_from_file_equals_network(self, n, distribution, quantized, mode,
                                             decay, seed):
        """Export, save, load and replay 200 seeded ticks: every unit's
        winner equals the network's bin."""
        net = build_npid(default_config(n=n, distribution=distribution,
                                        quantized=quantized, decay=decay, mode=mode))
        net.record_raster(True, raster=False)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "net.npz"
            net.export_netlist().save(path)
            rt = NetlistRuntime(Netlist.load(path))
        for k, (x, s) in enumerate(random_stimuli(net, 200, seed)):
            net.step(*x)
            w = rt.step(s)
            tr = net.fetch_trace()
            assert (w["error"], w["integral"], w["control"]) == (
                tr.error_bin[k], tr.integral_bin[k], tr.output_bin[k]), k
