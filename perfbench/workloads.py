"""The benchmark's workloads, their output checks and their metrics.

Every workload derives all of its inputs from one seed, sets up (build
plus a checked warm-up), then runs balanced *cycles* of operations, one
caller at a time.  Each operation's output is compared with an
independent reference; a mismatch counts as a failed operation.

    closed_loop       one op = one 20 s altitude step response
    controller_ticks  one op = a burst of 32 NpidNetwork.step ticks, the
                      last with the raster on, each with its
                      PidOracle.step_bins replay
    adder_sweep       one op = one exhaustive verify_adder call
    netlist_replay    one op = one NetlistRuntime.step tick
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from spikepid import controller, harness, units
from spikepid.controller import NpidNetwork, default_config
from spikepid.grids import encode, make_grid
from spikepid.netlist import Netlist, NetlistRuntime
from spikepid.reference import PidOracle, QuantPidState

from tracing import Tracer

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden_closed_loop.json"

# Gated metrics of the untraced run (name, unit), measured on every
# workload on its own operation.  The op latency median and the op rate
# are printed but not gated: the host's fast speed state comes and goes,
# so every central statistic moves with the share of a run it covers,
# while p90 sits in the usual state (see README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p90", "ms"),
)

# Program layers wrapped in the traced run; each gets .calls and
# .self_share (its self time over all time spent inside the program).
LAYERS = (
    "harness.run_step_response",
    "plant.plant_step",
    "plant.sense",
    "controller.build_npid",
    "controller.step",
    "grids.encode",
    "units.winner_bin.error",
    "units.winner_bin.integral",
    "units.winner_bin.control",
    "units.eval_bins",
    "reference.step_bins",
    "units.build_adder",
    "harness.verify_adder",
    "controller.export_netlist",
    "netlist.save",
    "netlist.load",
    "netlist.runtime_init",
    "netlist.step",
)

# Exact counts a workload computes itself (name, unit).
COUNTERS = (
    ("controller.raster_rows", "count"),
    ("units.pairs", "count"),
    ("units.aggregate_compares", "count"),
    ("netlist.synapses", "count"),
    ("netlist.neurons", "count"),
    ("netlist.file_mb", "MB"),
)

PER_LAYER = (
    tuple((f"{layer}.calls", "count") for layer in LAYERS)
    + tuple((f"{layer}.self_share", "ratio") for layer in LAYERS)
    + COUNTERS
    + (("plant.self_share", "ratio"),
       ("trace.overhead_frac", "ratio"),
       ("trace.pass_s", "s"))
)


@dataclass(frozen=True)
class Size:
    """How much work setup and one cycle do."""

    max_setup_reps: int
    tick_block: int      # controller ticks per config per cycle, a multiple of raster_every
    raster_every: int    # every k-th controller tick runs with the raster on
    adder_n: int
    netlist_n: int
    replay_block: int    # replay ticks per weight mode per cycle


SIZES = {
    "full": Size(max_setup_reps=5, tick_block=2048, raster_every=32,
                 adder_n=151, netlist_n=151, replay_block=10),
    "tiny": Size(max_setup_reps=1, tick_block=64, raster_every=8,
                 adder_n=15, netlist_n=15, replay_block=3),
}


class Samples:
    """Op latencies in a buffer allocated and touched up front, so the
    process's memory does not grow with the number of ops timed."""

    def __init__(self, cap: int):
        self.buf = np.full(cap, np.nan)
        self.n = 0

    def add(self, seconds: float) -> None:
        if self.n < len(self.buf):
            self.buf[self.n] = seconds
            self.n += 1

    def values(self) -> np.ndarray:
        return self.buf[:self.n]

    def clear(self) -> None:
        self.n = 0


class Workload:
    name = ""
    setup_reps = 5
    samples_cap = 1 << 14

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.samples = Samples(self.samples_cap)
        self.attempted = 0
        self.failed = 0
        self.counters: dict[str, float] = {}

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def setup(self) -> None:
        """Build everything the cycles use, from the seed, and warm up
        with checked operations.  Repeatable: each call starts afresh."""
        raise NotImplementedError

    def cycle(self) -> None:
        """Run one balanced cycle of ops, timing each into self.samples."""
        raise NotImplementedError

    def extras(self) -> dict:
        """Workload-specific figures printed next to the end-to-end
        metrics: name -> (value, unit, samples)."""
        return {}


# -- closed_loop ---------------------------------------------------------------

CLOSED_LOOP_CONFIGS = tuple((n, dist, quantized)
                            for n in (151, 63, 15)
                            for dist in ("uniform", "quadratic")
                            for quantized in (False, True))
SETPOINTS = tuple(k / 10 for k in range(5, 36))  # 0.5 .. 3.5 m


def golden_key(n: int, dist: str, quantized: bool, setpoint: float) -> str:
    return f"n{n}/{dist}/{'quantized' if quantized else 'float'}/{setpoint:.1f}"


def trace_digest(trace, path: Path) -> str:
    """SHA-256 of the trace CSV exactly as TraceRecord.write_csv writes it."""
    trace.write_csv(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class ClosedLoop(Workload):
    """Step responses of the npid controller over every config; a run
    fails if its trace CSV differs from the recorded golden digest."""

    name = "closed_loop"

    def setup(self):
        self.golden = json.loads(GOLDEN_PATH.read_text())["digests"]
        rng = np.random.default_rng(self.seed)
        self.setpoint_idx = rng.integers(0, len(SETPOINTS),
                                         size=(4096, len(CLOSED_LOOP_CONFIGS)))
        self.pos = 0
        self.csv_path = self.workdir / "closed_loop_trace.csv"
        self.cycle()  # warm-up: one checked run of every config

    def cycle(self):
        row = self.setpoint_idx[self.pos % len(self.setpoint_idx)]
        self.pos += 1
        for (n, dist, quantized), k in zip(CLOSED_LOOP_CONFIGS, row.tolist()):
            sp = SETPOINTS[k]
            cfg = harness.step_experiment(setpoint=sp, n=n, distribution=dist,
                                          quantized=quantized)
            t0 = perf_counter()
            trace, _ = harness.run_step_response(cfg)
            self.samples.add(perf_counter() - t0)
            self.check(trace_digest(trace, self.csv_path)
                       == self.golden[golden_key(n, dist, quantized, sp)])



# -- controller_ticks ----------------------------------------------------------

TICK_CONFIGS = (default_config(n=151),
                default_config(n=151, quantized=True),
                default_config(n=15, distribution="quadratic"))
STREAM_TICKS = 4096


@dataclass
class _Lane:
    """One controller, the reference it is checked against (an oracle or
    a netlist runtime) and its seeded input stream."""

    net: NpidNetwork
    inputs: list          # (target, measurement, derivative) floats
    bins: list            # the same, encoded to input bins
    oracle: PidOracle | None = None
    state: QuantPidState | None = None
    runtime: NetlistRuntime | None = None
    pos: int = 0


def _stream(rng, net, ticks: int):
    """Seeded in-range controller inputs and their encoded bins."""
    tm, dg = net.grids.target_measurement, net.grids.derivative
    inputs = list(zip(rng.uniform(tm.values[0], tm.values[-1], ticks).tolist(),
                      rng.uniform(tm.values[0], tm.values[-1], ticks).tolist(),
                      rng.uniform(dg.values[0], dg.values[-1], ticks).tolist()))
    bins = [(encode(tm, t), encode(tm, m), encode(dg, d)) for t, m, d in inputs]
    return inputs, bins


class ControllerTicks(Workload):
    """Open-loop ticks through NpidNetwork.step, each replayed through
    PidOracle.step_bins.  A tick fails if its integral or output bin
    differs from the oracle's (by more than one bin with quantized
    weights) or its derivative bin differs from the encoded input.

    An op is a burst of raster_every ticks, the last with the raster on.
    Single ticks are not used as ops: their latencies are bimodal on a
    host whose speed flips every few microseconds, and a median between
    the two modes jumps from run to run."""

    name = "controller_ticks"
    samples_cap = 1 << 18

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.lanes = []
        for cfg in TICK_CONFIGS:
            net = controller.build_npid(cfg)
            oracle = PidOracle(net.grids, cfg.gains, cfg.dt, lam=cfg.decay,
                               mode=cfg.mode, quantized=cfg.quantized)
            inputs, bins = _stream(rng, net, STREAM_TICKS)
            self.lanes.append(_Lane(net, inputs, bins, oracle=oracle,
                                    state=oracle.fresh_state()))
        self.step_s = {False: 0.0, True: 0.0}  # keyed by raster on
        self.step_n = {False: 0, True: 0}
        self.oracle_s = 0.0
        self.counters["controller.raster_rows"] = 0
        self.cycle()  # warm-up

    def cycle(self):
        for lane in self.lanes:
            self._block(lane)

    def _block(self, lane: _Lane):
        net, oracle, state = lane.net, lane.oracle, lane.state
        tol = 1 if net.config.quantized else 0
        every = self.size.raster_every
        net.record_raster(True, raster=False)  # fresh bin trace per block
        burst = 0.0
        for k in range(self.size.tick_block):
            raster = k % every == every - 1
            if raster:
                net.record_raster(True, raster=True)
            tr = net.fetch_trace()
            i = lane.pos % STREAM_TICKS
            lane.pos += 1
            target, meas, deriv = lane.inputs[i]
            t_bin, m_bin, d_bin = lane.bins[i]
            t0 = perf_counter()
            net.step(target, meas, deriv)
            t1 = perf_counter()
            u_bin = oracle.step_bins(state, t_bin, m_bin, d_bin)
            t2 = perf_counter()
            burst += t2 - t0
            self.step_s[raster] += t1 - t0
            self.step_n[raster] += 1
            self.oracle_s += t2 - t1
            self.check(abs(tr.output_bin[-1] - u_bin) <= tol
                       and abs(tr.integral_bin[-1] - state.integral_bin) <= tol
                       and tr.deriv_bin[-1] == d_bin)
            if raster:
                self.counters["controller.raster_rows"] += len(tr.raster)
                net.record_raster(True, raster=False)
                self.samples.add(burst)
                burst = 0.0

    def extras(self):
        ticks = self.step_n[False] + self.step_n[True]
        return {
            "ctrl_ticks_per_s": (self.step_n[False] / self.step_s[False],
                                 "ticks/s", self.step_n[False]),
            "raster_ticks_per_s": (self.step_n[True] / self.step_s[True],
                                   "ticks/s", self.step_n[True]),
            "oracle_ticks_per_s": (ticks / self.oracle_s, "ticks/s", ticks),
        }


# -- adder_sweep ---------------------------------------------------------------

# The scope of acceptance criterion 1 at one resolution: float weights on
# both grids, quantized weights on the uniform grid, both rounding modes.
# Quantized quadratic grids are guaranteed only at N=15, where the central
# bins are wider than the even-integer weight step.
ADDER_CONFIGS = (tuple((dist, mode, False) for dist in ("uniform", "quadratic")
                       for mode in ("floor", "nearest"))
                 + tuple(("uniform", mode, True) for mode in ("floor", "nearest")))


class AdderSweep(Workload):
    """Exhaustive verify_adder over every input pair of each config in
    ADDER_CONFIGS, on seeded symmetric input ranges.  A pair fails by
    AdderCheckReport.ok's rule: float exact, quantized within one bin."""

    name = "adder_sweep"

    def setup(self):
        n = self.size.adder_n
        rng = np.random.default_rng(self.seed)
        self.ranges = rng.uniform(0.5, 2.0, size=(4096, len(ADDER_CONFIGS)))
        self.pos = 0
        # The canonical verification adder of each config, built as
        # verify_adder builds it; its aggregate size gives the compares.
        self.aggregates = []
        for dist, mode, quantized in ADDER_CONFIGS:
            g_in = make_grid(-1.25, 1.25, n, dist)
            g_out = make_grid(-2.5, 2.5, 2 * n - 1, dist)
            unit = units.build_adder([(g_in, 1, 1.0), (g_in, 1, 1.0)], g_out,
                                     mode=mode, quantized=quantized, name="check")
            self.aggregates.append(unit.pos_count + unit.neg_count)
        self.pairs_s = 0.0
        self.counters["units.pairs"] = 0
        self.counters["units.aggregate_compares"] = 0
        self.cycle()  # warm-up

    def cycle(self):
        n = self.size.adder_n
        row = self.ranges[self.pos % len(self.ranges)]
        self.pos += 1
        for (dist, mode, quantized), aggregates, hi in zip(
                ADDER_CONFIGS, self.aggregates, row.tolist()):
            t0 = perf_counter()
            rep = harness.verify_adder(n, dist, mode, quantized=quantized,
                                       lo=-hi, hi=hi)
            dt = perf_counter() - t0
            self.samples.add(dt)
            self.pairs_s += dt
            good = rep.within_one if quantized else rep.exact
            self.attempted += rep.pairs
            self.failed += rep.pairs - good
            self.counters["units.pairs"] += rep.pairs
            self.counters["units.aggregate_compares"] += rep.pairs * aggregates

    def extras(self):
        pairs = self.counters["units.pairs"]
        return {"verify_pairs_per_s": (pairs / self.pairs_s, "pairs/s", pairs)}


# -- netlist_replay ------------------------------------------------------------

class NetlistReplay(Workload):
    """Export, save, load and replay the float and the quantized
    controller netlist, co-simulated against NpidNetwork.step.  A tick
    fails if any unit's replayed winner differs from the network's bin."""

    name = "netlist_replay"
    setup_reps = 3

    def setup(self):
        self.lanes = []  # drop the previous repetition's graphs first
        rng = np.random.default_rng(self.seed)
        file_bytes = 0
        for quantized in (False, True):
            net = controller.build_npid(default_config(n=self.size.netlist_n,
                                                       quantized=quantized))
            path = self.workdir / f"netlist_{'quantized' if quantized else 'float'}.json"
            net.export_netlist().save(path)
            file_bytes += path.stat().st_size
            loaded = Netlist.load(path)
            self.counters["netlist.synapses"] = len(loaded.synapses)
            self.counters["netlist.neurons"] = len(loaded.neurons)
            runtime = NetlistRuntime(loaded)
            net.record_raster(True, raster=False)
            inputs, bins = _stream(rng, net, STREAM_TICKS)
            self.lanes.append(_Lane(net, inputs, bins, runtime=runtime))
        self.counters["netlist.file_mb"] = file_bytes / 1e6
        for lane in self.lanes:  # warm-up: one checked tick each
            self._tick(lane)

    def cycle(self):
        for lane in self.lanes:
            lane.net.record_raster(True, raster=False)  # fresh bin trace
            for _ in range(self.size.replay_block):
                self._tick(lane)

    def _tick(self, lane: _Lane):
        i = lane.pos % STREAM_TICKS
        lane.pos += 1
        t_bin, m_bin, d_bin = lane.bins[i]
        lane.net.step(*lane.inputs[i])
        t0 = perf_counter()
        won = lane.runtime.step({"target": t_bin, "measurement": m_bin,
                                 "derivative": d_bin})
        self.samples.add(perf_counter() - t0)
        tr = lane.net.fetch_trace()
        self.check((won["error"], won["integral"], won["control"])
                   == (tr.error_bin[-1], tr.integral_bin[-1], tr.output_bin[-1]))

    def extras(self):
        return {"netlist_mb": (self.counters["netlist.file_mb"], "MB", 1)}


WORKLOADS = {w.name: w for w in (ClosedLoop, ControllerTicks, AdderSweep,
                                 NetlistReplay)}


# -- measurement -----------------------------------------------------------------


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def measure(wl: Workload, seconds: float) -> dict:
    """Untraced run: setup repeated, then whole cycles until seconds
    have passed.  Returns every END_TO_END metric, and as extras the op
    median, the op rate and the workload's own figures, each with its
    unit and sample count."""
    reps = min(wl.setup_reps, wl.size.max_setup_reps)
    setup_times = []
    for _ in range(reps):
        t0 = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t0)
    wl.samples.clear()
    deadline = perf_counter() + seconds
    while True:
        wl.cycle()
        if perf_counter() >= deadline:
            break
    ops = wl.samples.values()
    ms = ops * 1e3
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s", reps),
        "peak_rss_mb": _metric(rss_mb, "MB", 1),
        "op_ms_p90": _metric(float(np.percentile(ms, 90)), "ms", len(ms)),
    }
    extras = {
        "op_ms_p50": _metric(float(np.percentile(ms, 50)), "ms", len(ms)),
        "ops_per_s": _metric(len(ops) / float(ops.sum()), "1/s", len(ops)),
        **{k: _metric(*v) for k, v in wl.extras().items()},
        "failed_frac": _metric(wl.failed / wl.attempted, "ratio", wl.attempted),
    }
    return {"metrics": metrics, "extras": extras}


def _pass(wl: Workload, tracer: Tracer | None) -> float:
    """One pass: a fresh setup plus one cycle; returns its wall time."""
    wl.counters = {}
    wl.samples.clear()
    t0 = perf_counter()
    if tracer is None:
        wl.setup()
        wl.cycle()
    else:
        with tracer.installed():
            wl.setup()
            wl.cycle()
    return perf_counter() - t0


def _layer_metrics(tracer: Tracer, wall: float, counters: dict) -> dict:
    summary = tracer.summary()
    program = tracer.program_seconds()
    out = {}
    for layer in LAYERS:
        calls, self_s = summary.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_share"] = self_s / program
    plant = sum(s for name, (_, s) in summary.items() if name.startswith("plant."))
    out["plant.self_share"] = plant / program
    for name, _ in COUNTERS:
        out[name] = counters.get(name, 0)
    out["trace.pass_s"] = wall
    return out


def measure_traced(wl: Workload, seconds: float, spans_path: Path) -> dict:
    """Traced run: pairs of passes (untraced, then traced, same inputs)
    until seconds have passed.  Counts come from one traced pass and
    repeat exactly; shares and the overhead are medians over passes."""
    deadline = perf_counter() + seconds
    passes = []
    while True:
        untraced = _pass(wl, None)
        tracer = Tracer()
        traced = _pass(wl, tracer)
        layer = _layer_metrics(tracer, traced, wl.counters)
        layer["trace.overhead_frac"] = (traced - untraced) / untraced
        passes.append(layer)
        if perf_counter() >= deadline:
            break
    tracer.save(spans_path)
    metrics = {}
    for name, unit in PER_LAYER:
        values = [p[name] for p in passes]
        if unit in ("count", "MB"):
            if len(set(values)) != 1:
                raise RuntimeError(f"count {name} differs between passes: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = _metric(value, unit, len(passes))
    return {"metrics": metrics, "extras": {}}
