"""Experiment harness: runs, metrics, verification, emission."""

import builtins
import hashlib
import json
import math
import re
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from spikepid import cli, harness
from spikepid.controller import build_npid, default_config
from spikepid.grids import encode, make_grid
from spikepid.harness import (
    AdderCheckReport,
    ExperimentConfig,
    bench,
    compare,
    cosim_inputs,
    cosimulate,
    load_config,
    run_step_response,
    step_experiment,
    verify_adder,
    write_summary_csv,
    write_svg,
)
from spikepid.netlist import NetlistRuntime
from spikepid.plant import PlantParams, PlantState, SensorModel, sense
from spikepid.reference import PidOracle, PidState, pid_step, round_to_grid
from spikepid.units import AdderUnit, build_adder


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

    def test_rate_sets_the_one_control_period(self):
        cfg = step_experiment(n=15, rate=35.0, duration=2.0)
        trace, _ = run_step_response(cfg)
        assert len(trace) == 70
        assert trace.t[1] == cfg.npid.dt
        assert "rate" not in {f.name for f in fields(ExperimentConfig)}

    def test_metrics_do_not_follow_the_interpreter_sum(self, monkeypatch):
        """From Python 3.12, sum() compensates float sums (Neumaier).  The
        metrics sum left to right themselves, so a run scores the same
        under either sum."""
        literal = builtins.sum

        def compensated(items, start=0):
            items = list(items)
            if not all(isinstance(x, float) for x in items):
                return literal(items, start)
            s, c = float(start), 0.0
            for x in items:
                t = s + x
                c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
                s = t
            return s + c

        cfg = step_experiment(setpoint=3.5, n=15)
        want = run_step_response(cfg)[1]
        monkeypatch.setattr(builtins, "sum", compensated)
        assert run_step_response(cfg)[1] == want

    def test_settles_into_band(self):
        cfg = step_experiment(setpoint=1.5, n=151)
        _, metrics = run_step_response(cfg)
        assert metrics.settled
        assert metrics.settling_time <= 15.0

    def test_run_that_ends_outside_the_band_has_not_settled(self):
        """Half a second is too short to climb 1.5 m: the last tick is out
        of the band, so there is no settling time."""
        trace, metrics = run_step_response(step_experiment(setpoint=1.5, n=15,
                                                           duration=0.5))
        assert trace.z[-1] < 1.0
        assert not metrics.settled and metrics.settling_time == math.inf

    @pytest.mark.parametrize("n", [2, 3, 15, 151])
    @pytest.mark.parametrize("lo,hi,distribution", [(0.0, 4.0, "uniform"),
                                                    (-2.0, 2.0, "quadratic")])
    def test_settle_band_is_the_bin_test(self, n, lo, hi, distribution):
        """An altitude lies in settle_band's (lo, hi] exactly when encode
        puts it within one bin of the set-point's bin: at every boundary,
        the doubles either side of it and past both ends, for a set-point
        on each value and each boundary."""
        grid = make_grid(lo, hi, n, distribution)
        b = np.array(grid._boundaries)
        zs = np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                             [lo - 1.0, hi + 1.0]]).tolist()
        for sp in [*grid.values, *b.tolist()]:
            band_lo, band_hi = harness.settle_band(grid, sp)
            for z in zs:
                assert (band_lo < z <= band_hi) == (
                    abs(encode(grid, z) - encode(grid, sp)) <= 1), (sp, z)

    @pytest.mark.parametrize("n,band", [(15, (1.0, 1.857)), (151, (1.4533, 1.5333))])
    def test_settle_band_of_the_stock_run(self, n, band):
        cfg = step_experiment(setpoint=1.5, n=n)
        assert harness.settle_band(cfg.npid.target_grid.build(), 1.5) == pytest.approx(
            band, abs=5e-4)

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

    def test_baseline_takes_the_sensor_derivative(self):
        """At sensor_window 3 the sensor's climb differs from the error's
        one-tick difference; the baseline gets the climb, as the spiking
        controller does, tick for tick."""
        cfg = replace(step_experiment(setpoint=2.0, controller="baseline",
                                      duration=5.0), sensor_window=3)
        trace, _ = run_step_response(cfg)
        sensor, pid = SensorModel(cfg.sensor_quantum, cfg.sensor_window), PidState()
        out = cfg.npid.output_grid
        for z, z_meas, u in zip(trace.z, trace.z_meas, trace.u_newton):
            got_meas, climb = sense(sensor, PlantState(z=z), cfg.npid.dt)
            assert got_meas == z_meas
            assert u == pid_step(pid, cfg.setpoint, z_meas, cfg.npid.dt, cfg.npid.gains,
                                 clamp=(out.lo, out.hi), lam=cfg.npid.decay,
                                 derivative=-climb)

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

    @pytest.mark.parametrize("cfg", [
        step_experiment(setpoint=2.0, n=151),
        step_experiment(setpoint=0.0, n=15),  # no step: rise time 0
        step_experiment(setpoint=3.5, n=15, duration=0.4),  # never reaches 90%
        step_experiment(setpoint=1.0, n=63, controller="baseline", quantized=True),
    ], ids=["n151", "no-step", "short", "baseline"])
    def test_metrics_equal_the_scalar_loops(self, cfg):
        """Rise time, overshoot and saturation, which the metrics take from
        arrays, equal the per-tick Python loops they replaced, bit for bit."""
        trace, m = run_step_response(cfg)
        z, sp, dt = trace.z, cfg.setpoint, cfg.npid.dt
        step = sp - z[0]
        rise = 0.0
        if step != 0:
            frac = [(zz - z[0]) / step for zz in z]
            t10 = next((k * dt for k, fr in enumerate(frac) if fr >= 0.1), math.inf)
            t90 = next((k * dt for k, fr in enumerate(frac) if fr >= 0.9), math.inf)
            rise = t90 - t10 if math.isfinite(t90) and math.isfinite(t10) else math.inf
        over = max(0.0, max(z) - sp)
        sat = sum(1 for u in trace.u_newton
                  if abs(u) >= cfg.npid.output_grid.hi) / len(z)
        got = m.rise_time, m.overshoot, m.saturation_fraction
        assert [type(v) for v in got] == [float] * 3
        assert [v.hex() for v in got] == [v.hex() for v in (rise, over, sat)]

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            run_step_response(step_experiment(duration=-1.0))

    @pytest.mark.parametrize("name,value", [
        ("controller", "pid"), ("controller", ["npid"]),
        ("duration", 0.0), ("duration", math.inf), ("duration", 0.001),
        ("duration", 1e308),  # finite, but 1e308 s x 70 Hz ticks is inf
        ("rate", -70.0), ("rate", math.nan), ("rate", 0.0),
        ("physics_substeps", 0), ("physics_substeps", 10.0),
        ("setpoint", math.nan), ("setpoint", math.inf), ("setpoint", -0.5),
        ("sensor_quantum", 0.0), ("sensor_quantum", math.nan),
        ("sensor_window", 0), ("sensor_window", 1.5),
        ("battery_beta", -0.01), ("battery_beta", math.nan),
        ("label", 5),
    ])
    def test_config_rejected_at_construction_by_field(self, name, value):
        if name == "rate":  # step_experiment's argument, not a field
            with pytest.raises(ValueError, match=name):
                step_experiment(n=15, rate=value)
            return
        stock = step_experiment(n=15)
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{"npid": stock.npid, "setpoint": 1.5, name: value})
        with pytest.raises(ValueError, match=name):
            replace(stock, **{name: value})

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


class TestControllerTable:
    """CONTROLLERS is the one place that names a controller: a third
    entry is flown by the config, the loop and the CLI with no other
    edit, and an unknown name is rejected with the table's keys."""

    @pytest.fixture
    def fake(self, monkeypatch):
        def build(cfg):
            return (lambda setpoint, z_meas, d_meas: 0.0,
                    lambda: tuple([-1] * cfg.ticks for _ in range(4)))
        monkeypatch.setitem(harness.CONTROLLERS, "fake", build)

    def test_config_and_loop_fly_a_new_entry(self, fake):
        cfg = ExperimentConfig(npid=step_experiment(n=15).npid, setpoint=1.0,
                               duration=1.0, controller="fake")
        trace, _ = run_step_response(cfg)
        assert len(trace) == cfg.ticks
        assert set(trace.u_newton) == {0.0}
        assert set(trace.error_bin) == set(trace.u_bin) == {-1}
        assert step_experiment(n=15, controller="fake").label == "fake-n15-uniform"

    def test_cli_run_and_compare_take_a_new_entry(self, fake, capsys, tmp_path):
        assert cli.main(["run", "--controller", "fake", "--neurons", "15",
                         "--duration", "1"]) == 0
        assert capsys.readouterr().out.startswith("fake step to")
        out = tmp_path / "compare.csv"
        assert cli.main(["compare", "--neurons", "15", "--duration", "1",
                         "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        col = header.split(",").index("controller")
        assert [r.split(",")[col] for r in rows] == ["npid", "baseline", "fake"]

    def test_nan_command_stops_the_loop_on_its_tick(self, monkeypatch):
        """A controller whose 6th output is NaN makes a NaN thrust
        command; the plant rejects it on that tick, so the loop never
        asks the controller for a 7th."""
        calls = []

        def build(cfg):
            def step(setpoint, z_meas, d_meas):
                calls.append(None)
                return math.nan if len(calls) == 6 else 0.0
            return step, lambda: tuple([-1] * cfg.ticks for _ in range(4))
        monkeypatch.setitem(harness.CONTROLLERS, "nan6", build)
        cfg = ExperimentConfig(npid=step_experiment(n=15).npid, setpoint=1.0,
                               duration=1.0, controller="nan6")
        with pytest.raises(ValueError, match="command"):
            run_step_response(cfg)
        assert len(calls) == 6

    def test_unknown_name_rejected_with_the_keys(self, fake):
        with pytest.raises(ValueError, match="^controller must be one of "
                                             "'npid', 'baseline', 'fake', got 'pid'$"):
            step_experiment(n=15, controller="pid")


GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden_closed_loop.json"


# The RunMetrics fields the pin covers, read by name, so that a field
# added later does not move it.
PINNED_METRICS = ("rise_time", "overshoot", "overshoot_pct", "settling_time",
                  "settled", "steady_state_error", "saturation_fraction")
RUN_METRICS_SHA256 = "b55caa663255a5f684ee29a05c5640ecce9879c4f7c4b8c73ce7e5ab5eb51b5d"


class TestGoldenTraces:
    """A sample of the benchmark's recorded trace digests: every
    closed_loop config at the lattice's ends and middle.  A change that
    moves one bin, or one float of the CSV, changes a digest; a change
    that moves one metric of these runs changes the metrics pin."""

    SETPOINTS = (0.5, 1.5, 3.5)

    @pytest.fixture(scope="class")
    def digests(self):
        return json.loads(GOLDEN.read_text())["digests"]

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """golden key -> (trace CSV SHA-256, RunMetrics) of every sampled run."""
        path = tmp_path_factory.mktemp("golden") / "trace.csv"
        out = {}
        for n in (151, 63, 15):
            for distribution in ("uniform", "quadratic"):
                for quantized in (False, True):
                    kind = "quantized" if quantized else "float"
                    for sp in self.SETPOINTS:
                        trace, metrics = run_step_response(step_experiment(
                            setpoint=sp, n=n, distribution=distribution,
                            quantized=quantized))
                        trace.write_csv(path)
                        out[f"n{n}/{distribution}/{kind}/{sp:.1f}"] = (
                            hashlib.sha256(path.read_bytes()).hexdigest(), metrics)
        return out

    @pytest.mark.parametrize("n", [151, 63, 15])
    @pytest.mark.parametrize("distribution", ["uniform", "quadratic"])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_trace_csv_matches_recorded_digest(self, runs, digests, n,
                                               distribution, quantized):
        kind = "quantized" if quantized else "float"
        for sp in self.SETPOINTS:
            key = f"n{n}/{distribution}/{kind}/{sp:.1f}"
            assert runs[key][0] == digests[key], sp

    def test_run_metrics_match_pin(self, runs):
        """One SHA-256 over the repr of every pinned metric of the 36
        sampled runs, in the order the runs fly."""
        text = "".join(f"{key} {name}={getattr(metrics, name)!r}\n"
                       for key, (_, metrics) in runs.items()
                       for name in PINNED_METRICS)
        assert hashlib.sha256(text.encode()).hexdigest() == RUN_METRICS_SHA256


class TestBaselineTraces:
    """SHA-256 of the baseline controller's trace CSV for four runs: two
    set-points, a windowed sensor (whose climb is not the error's one-tick
    difference) and a faster rate with battery sag.  The golden file
    holds only spiking-controller runs, so these pin the baseline."""

    DIGESTS = {
        (("setpoint", 0.7),):
            "20a14303bad0deaa7bbcb2d0a7326e49627f49a176732b28ef8379946cbafce2",
        (("setpoint", 2.3),):
            "b5d0e130e4e9e176cc2ffef44513ee21a856ae9b8ab45530eebc64c99006d775",
        (("sensor_window", 3),):
            "fe1d7c8108e5861ecd8c32be7ac780cebf7c855fc1e730b7abf1af4fad5bfbcd",
        (("rate", 140.0), ("battery_beta", 0.05)):
            "ef3b6c7bc23e4e05232da283f448c9273b406ff5e0cfd161a5e3ca6642efb9c3",
    }

    @pytest.mark.parametrize("run", list(DIGESTS),
                             ids=lambda run: ",".join(f"{k}={v}" for k, v in run))
    def test_trace_csv_matches_pin(self, tmp_path, run):
        trace, _ = run_step_response(step_experiment(controller="baseline",
                                                     **dict(run)))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[run]


class TestNonStockPlantTraces:
    """SHA-256 of the trace CSV of four N=15, 5 s runs off the stock
    plant: no motor lag, battery sag, 3 physics sub-steps, and a windowed
    sensor under the baseline controller.  The golden digests all fly the
    stock plant, so these pin the other branches of the closed loop."""

    DIGESTS = {
        (("plant", PlantParams(motor_tau=0.0)),):
            "b461a663779952b0fb5f6d4d4dd22a58bb0d1a47c4febed16b7099029e8ad97e",
        (("battery_beta", 0.05),):
            "5bc9c3f12f06f9ec20cb910e2e45d69342e39bbec80b864a583324d23da00e42",
        (("physics_substeps", 3),):
            "568ba81765aef51751572deb322e2475702fb31f320c6f2401389481ff356812",
        (("controller", "baseline"), ("sensor_window", 2)):
            "77c2396adf75da48be054bca6b8ef9d679d32ecfdce8e1cd637eb554e5ba0267",
    }

    @pytest.mark.parametrize("run", list(DIGESTS), ids=[
        "motor_tau=0", "battery_beta=0.05", "physics_substeps=3",
        "baseline,sensor_window=2"])
    def test_trace_csv_matches_pin(self, tmp_path, run):
        trace, _ = run_step_response(step_experiment(n=15, duration=5.0, **dict(run)))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[run]


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

    def test_quantized_quadratic_n151_report_pin(self):
        """Past n=15 the even-integer weight step outgrows the central
        quadratic bins, and the report says so, count for count."""
        rep = verify_adder(151, "quadratic", "nearest", quantized=True)
        assert not rep.ok
        assert (rep.pairs, rep.exact, rep.within_one, rep.max_deviation) == (
            22801, 16229, 22151, 9)
        assert rep.mismatches[0] == (0, 19, 17, 18)
        assert len(rep.mismatches) == 10

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            verify_adder(1002)

    @staticmethod
    def brute_force_report(n, dist, mode, quantized, hi):
        """verify_adder's report built the plain way: eval_bins on every
        pair row and the scalar oracle on every pair's sum."""
        g_in = make_grid(-hi, hi, n, dist)
        g_out = make_grid(-2 * hi, 2 * hi, 2 * n - 1, dist)
        unit = build_adder([(g_in, 1, 1.0), (g_in, 1, 1.0)], g_out,
                           mode=mode, quantized=quantized, name="check")
        pairs = [(i, j) for i in range(n) for j in range(n)]
        got = unit.eval_bins(pairs)[0].tolist()
        want = [round_to_grid(g_out, g_in.values[i] + g_in.values[j], mode)
                for i, j in pairs]
        dev = [abs(g - w) for g, w in zip(got, want)]
        return AdderCheckReport(
            n=n, distribution=dist, mode=mode, quantized=quantized, pairs=n * n,
            exact=dev.count(0), within_one=sum(d <= 1 for d in dev),
            max_deviation=max(dev),
            mismatches=[(i, j, g, w) for (i, j), g, w, d in
                        zip(pairs, got, want, dev) if d][:10])

    @pytest.mark.parametrize("n", [3, 8, 31])
    @pytest.mark.parametrize("dist", ["uniform", "quadratic"])
    @pytest.mark.parametrize("mode", ["floor", "nearest"])
    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("hi", [1.25, 1.0, 0.37])
    def test_distinct_potentials_report_equals_brute_force(self, n, dist, mode,
                                                           quantized, hi):
        """Propagating one pair per aggregate firing class loses nothing:
        every report field but the time equals the all-pairs report."""
        rep = asdict(verify_adder(n, dist, mode, quantized=quantized, lo=-hi, hi=hi))
        want = asdict(self.brute_force_report(n, dist, mode, quantized, hi))
        del rep["elapsed_s"], want["elapsed_s"]
        assert rep == want

    def test_brute_force_comparison_covers_ties_and_mismatches(self):
        """The grids above make many pairs share a potential (on the
        uniform grid over [-1, 1], i + j fixes the sum), many distinct
        potentials share a firing class (float weights on the quadratic
        grid), and some quantized configs miss the oracle, so the class
        expansion at both levels and the row-major mismatch list are
        exercised."""
        pairs = [(i, j) for i in range(31) for j in range(31)]
        g_in = make_grid(-1.0, 1.0, 31)
        unit = build_adder([(g_in, 1, 1.0), (g_in, 1, 1.0)],
                           make_grid(-2.0, 2.0, 61))
        assert len(set(unit.potentials(pairs).tolist())) < len(pairs) / 4
        g_in = make_grid(-1.25, 1.25, 31, "quadratic")
        unit = build_adder([(g_in, 1, 1.0), (g_in, 1, 1.0)],
                           make_grid(-2.5, 2.5, 61, "quadratic"))
        s = unit.potentials(pairs)
        assert len(set(unit.firing_class(s).tolist())) < len(set(s.tolist())) / 2
        rep = verify_adder(31, "quadratic", "nearest", quantized=True, lo=-0.37, hi=0.37)
        assert len(rep.mismatches) == 10

    def test_out_of_order_ladder_is_caught(self, monkeypatch):
        """Firing classes count thresholds over sorted copies of the
        ladders, so they do not assume the prefix property the check is
        there to test: with two thr_pos entries swapped, the potentials
        between them still get their own class, their reduce layer
        fires two winners, and verify_adder raises eval_bins' error on a
        row that eval_bins alone rejects too."""
        built = []

        def swapped(inputs, output, **kwargs):
            u = build_adder(inputs, output, **kwargs)
            thr_pos = list(u.thr_pos)
            thr_pos[3], thr_pos[4] = thr_pos[4], thr_pos[3]
            built.extend([u, AdderUnit(u.name, u.inputs, u.output, u.mode, u.quantized,
                                       u.scale, u.weights, thr_pos, u.thr_neg)])
            return built[-1]

        monkeypatch.setattr(harness, "build_adder", swapped)
        with pytest.raises(AssertionError, match="produced 2 winners") as exc:
            verify_adder(15, "uniform", "nearest")
        row = json.loads(re.search(r"input bins (\[.*\])", str(exc.value)).group(1))
        with pytest.raises(AssertionError, match="produced 2 winners"):
            built[1].eval_bins([row])
        # The classes are those of the ordered ladder, potential for potential.
        s = built[0].potentials([(i, j) for i in range(15) for j in range(15)])
        assert (built[1].firing_class(s) == built[0].firing_class(s)).all()

    def test_report_summary_format(self):
        rep = verify_adder(15, "uniform", "floor")
        assert "15" in rep.summary() and "OK" in rep.summary()


COSIM_CFG = default_config(n=15, decay=0.9)


class TestCosimulate:
    def test_stream_is_three_scalar_draws_per_tick(self):
        """Target and measurement drawn together equal two scalar draws,
        so tests that drew three scalars per tick check the same ticks."""
        rng = np.random.default_rng(3)
        want = [(rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(-0.5, 0.5))
                for _ in range(50)]
        assert [x for x, _ in cosim_inputs(COSIM_CFG, 50, 3)] == want

    def test_clean_run_reports_no_mismatch(self, tmp_path):
        path = tmp_path / "net.npz"
        build_npid(COSIM_CFG).export_netlist().save(path)
        rep = cosimulate(COSIM_CFG, 50, 1, against=("oracle", "netlist", path))
        assert rep.first_mismatch == {"oracle": None, "netlist": None, str(path): None}
        assert rep.ticks == 50 and rep.ok and "[OK]" in rep.summary()

    @pytest.mark.parametrize("evaluator, cls, method, unit, bump", [
        ("oracle", PidOracle, "step_bins", "control", lambda u: u + 1),
        ("netlist", NetlistRuntime, "step", "integral",
         lambda w: {**w, "integral": w["integral"] + 1}),
    ])
    def test_evaluator_wrong_at_one_tick_is_reported_there(self, monkeypatch, evaluator,
                                                           cls, method, unit, bump):
        """An evaluator wrong at tick 7 alone is reported at that tick and
        unit with both bins, while the other runs every tick clean; alone,
        it ends the run there."""
        right, calls = getattr(cls, method), []

        def wrong(self, *args):
            calls.append(None)
            got = right(self, *args)
            return bump(got) if len(calls) == 8 else got
        monkeypatch.setattr(cls, method, wrong)
        net = build_npid(COSIM_CFG)
        net.record_raster(True, raster=False)
        for inputs, _ in cosim_inputs(COSIM_CFG, 8, 1):
            net.step(*inputs)
        tr = net.fetch_trace()
        want = {"integral": tr.integral_bin[7], "control": tr.output_bin[7]}[unit]
        rep = cosimulate(COSIM_CFG, 40, 1, against=("oracle", "netlist"))
        assert rep.first_mismatch == {"oracle": None, "netlist": None,
                                      evaluator: (7, unit, want + 1, want)}
        assert rep.ticks == 40 and not rep.ok
        assert f"{evaluator} tick 7: {unit} bin {want + 1}, network {want}" in rep.summary()
        calls.clear()
        alone = cosimulate(COSIM_CFG, 40, 1, against=(evaluator,))
        assert alone.first_mismatch == {evaluator: (7, unit, want + 1, want)}
        assert alone.ticks == 8

    @pytest.mark.parametrize("ticks, against, message", [
        (10, ("orcale",), "against entry 'orcale' is not"),
        (10, ("net.json",), "against entry 'net.json' is not"),
        (10, (), "against must name at least one evaluator"),
        (0, ("oracle",), "ticks must be an integer >= 1, got 0"),
        (2.5, ("oracle",), "ticks must be an integer >= 1, got 2.5"),
        (10, "oracle", "against must be a sequence of evaluators, got the bare 'oracle'"),
        (10, "net.npz", "against must be a sequence of evaluators, got the bare 'net.npz'"),
        (10, Path("net.npz"), "against must be a sequence of evaluators, got the bare "
                              f"{Path('net.npz')!r}"),
        (10, ("oracle", "oracle"), "against names 'oracle' more than once"),
        (10, ("netlist", "oracle", "netlist"), "against names 'netlist' more than once"),
        (10, ("net.npz", Path("net.npz")), "against names 'net.npz' more than once"),
    ])
    def test_bad_argument_rejected_by_name(self, ticks, against, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            cosimulate(COSIM_CFG, ticks, 1, against=against)


class TestBench:
    def test_reports_positive_throughput(self):
        rep = bench(ticks=20_000)
        assert rep.ticks_per_second > 0
        assert rep.mean_us > 0
        assert rep.p99_us >= rep.mean_us * 0.1

    def test_larger_network_is_not_meaningfully_faster(self):
        # Per-tick cost grows ~log(n), so the gap is small; best-of-three
        # runs and a generous factor keep scheduler noise out.  The sizes
        # alternate, so both see the same host load.
        rates = {15: [], 151: []}
        for _ in range(3):
            for n in rates:
                rates[n].append(bench(default_config(n=n), ticks=30_000).ticks_per_second)
        assert max(rates[15]) >= max(rates[151]) * 0.8


class TestBatch:
    def test_compare_produces_one_row_per_config(self):
        cfgs = [step_experiment(setpoint=2.0, duration=2.0),
                step_experiment(setpoint=2.0, controller="baseline",
                                duration=2.0)]
        rows = compare(cfgs)
        assert [r["controller"] for r in rows] == ["npid", "baseline"]

    def test_summary_csv(self, tmp_path):
        rows = compare([step_experiment(setpoint=1.0, n=15, duration=2.0)])
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
        trace.write_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0] == ("t,z,vz,z_meas,target,error_bin,integral_bin,"
                            "deriv_bin,u_bin,u_newton,thrust_total")
        assert len(lines) == 141

    def test_re_emitting_is_byte_identical(self, tmp_path):
        cfg = step_experiment(setpoint=1.0, duration=2.0)
        trace, _ = run_step_response(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        trace.write_csv(p1)
        trace.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_svg_contains_polyline_and_band(self, tmp_path):
        cfg = step_experiment(setpoint=1.0, duration=2.0)
        trace, _ = run_step_response(cfg)
        p = tmp_path / "plot.svg"
        write_svg([("altitude", trace.t, trace.z)], p, setpoint=1.0, band=(0.95, 1.05))
        text = p.read_text()
        assert text.count("<polyline") == 1
        assert "<rect" in text


class TestConfigFile:
    def test_load_defaults_and_overrides(self, tmp_path):
        cfg_json = {
            "gains": {"kp": 0.9, "ti": 0.2, "td": 2.0},
            "grids": {"n": 31, "distribution": "quadratic",
                      "output": {"range": [-1.0, 1.0]},
                      "error": {"distribution": "uniform"}},
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
        stock = step_experiment(n=31, distribution="quadratic").npid.error_grid
        assert cfg.npid.error_grid == replace(stock, distribution="uniform")  # no range
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
        assert cfg.npid.dt == 1.0 / 70.0
        cfg.validate()

    def test_plant_keys_are_the_plant_params_fields(self, tmp_path):
        names = [f.name for f in fields(PlantParams)]
        assert names == ["mass", "drag", "motor_tau", "hover_adjust"]
        p = tmp_path / "cfg.json"
        for key in names + ["battery_beta"]:
            p.write_text(json.dumps({"plant": {key: 0.5}}))
            load_config(p)
        for key in ("g", "thrust_min", "thrust_max"):
            p.write_text(json.dumps({"plant": {key: 0.5}}))
            with pytest.raises(ValueError, match=f"unknown config key plant.{key}$"):
                load_config(p)

    def test_bad_plant_value_rejected_as_file_key(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('{"plant": {"drag": NaN}}')
        with pytest.raises(ValueError, match=r"^plant\.drag must be finite"):
            load_config(p)

    @pytest.mark.parametrize("value", [5, [1.0], [-1.0, 0.0, 1.0], {"lo": -1, "hi": 1},
                                       ["a", 1], [None, 1], [0, True]])
    def test_grid_range_that_is_not_a_pair_rejected_by_name(self, tmp_path, value):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"grids": {"error": {"range": value}}}))
        with pytest.raises(ValueError, match=r"^grids\.error\.range must be a list"):
            load_config(p)

    @pytest.mark.parametrize("raw,message", [
        ({"sensor": {"quantum": True}}, "sensor.quantum must be a number, got True"),
        ({"sensor": {"window": True}}, "sensor.window must be an integer, got True"),
        ({"experiment": {"setpoint": "2"}}, "experiment.setpoint must be a number, got '2'"),
    ])
    def test_value_of_the_wrong_json_type_rejected_by_name(self, tmp_path, raw, message):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_config(p)

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
