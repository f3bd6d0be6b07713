"""Closed-loop experiments and verification harness.

Runs a controller of the CONTROLLERS table (the spiking network or the
PID baseline) against the vertical plant, computes step-response metrics,
verifies adder units exhaustively against the arithmetic oracle,
benchmarks tick throughput and writes deterministic CSV/SVG artifacts.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from .controller import (GridSpec, NpidConfig, build_npid, default_config,
                         write_csv_rows)
from .grids import ValueGrid, encode, make_grid
# plant_step is not called here; it stays imported because
# perfbench/tracing.py wraps harness.plant_step by name.
from .plant import (  # noqa: F401
    Integrator,
    PlantParams,
    PlantState,
    SensorModel,
    battery_sag,
    hover_thrust,
    plant_step,
    sense,
)
from .reference import PidGains, PidState, pid_step, round_to_grid
from .units import build_adder

__all__ = [
    "CONTROLLERS",
    "ExperimentConfig",
    "TraceRecord",
    "RunMetrics",
    "run_step_response",
    "AdderCheckReport",
    "verify_adder",
    "BenchReport",
    "bench",
    "compare",
    "load_config",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One closed-loop run: controller, plant, sensor and timing.

    The control period is npid.dt: the plant, the sensor and the metrics
    tick at the period the integral unit integrates over."""

    npid: NpidConfig
    setpoint: float
    controller: str = "npid"  # a key of CONTROLLERS
    plant: PlantParams = field(default_factory=PlantParams)
    sensor_quantum: float = 0.01
    sensor_window: int = 1
    duration: float = 20.0
    physics_substeps: int = 10
    battery_beta: float = 0.0
    label: str = ""

    def __post_init__(self):
        self.validate()

    @property
    def ticks(self) -> int:
        """Control ticks in the run."""
        return int(round(self.duration / self.npid.dt))

    def validate(self) -> None:
        """Raise ValueError, naming the field, for a value no run can use."""
        if not isinstance(self.controller, str) or self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be one of "
                             f"{', '.join(map(repr, CONTROLLERS))}, got {self.controller!r}")
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        # A finite duration over a tiny npid.dt can still be inf ticks,
        # which ticks cannot round.
        if not (0 < self.duration < math.inf
                and self.duration / self.npid.dt < math.inf and self.ticks >= 1):
            raise ValueError("duration must be finite and hold at least one, and "
                             f"finitely many, control ticks of npid.dt={self.npid.dt!r}, "
                             f"got {self.duration!r}")
        if (not isinstance(self.physics_substeps, numbers.Integral)
                or self.physics_substeps < 1):
            raise ValueError("physics_substeps must be an integer >= 1, "
                             f"got {self.physics_substeps!r}")
        # Every run starts on the ground (z = 0), and the plant never
        # goes below it.
        if not 0 <= self.setpoint < math.inf:
            raise ValueError(f"setpoint must be finite and >= 0, got {self.setpoint!r}")
        # The sensor and the battery model own their input rules; their
        # messages start with the argument name, which the prefix turns
        # into this config's field name.
        try:
            SensorModel(quantum=self.sensor_quantum, window=self.sensor_window)
        except ValueError as e:
            raise ValueError(f"sensor_{e}") from None
        try:
            battery_sag(0.0, self.battery_beta)
        except ValueError as e:
            raise ValueError(f"battery_{e}") from None


def step_experiment(setpoint: float = 1.5, n: int = 151,
                    distribution: str = "uniform", decay: float = 0.92,
                    mode: str = "nearest", quantized: bool = False,
                    rate: float = 70.0, **fields) -> ExperimentConfig:
    """The stock altitude step response at control rate `rate` [Hz];
    every other ExperimentConfig field passes through.

    On top of the stock controller config this narrows the error grid to
    +/-2 m (errors past 1.44 m saturate the proportional term anyway, so
    the finer bins are free) and uses a +/-0.1 quadratic integral grid:
    the nearest-rounded recurrence only sheds an integral bin when the
    decay step exceeds half a bin, so fine central bins plus a decay of
    0.92 let the wound-up integral drain instead of parking the loop off
    target.  An unlabelled run is labelled controller-nN-distribution.
    """
    if not 0 < rate < math.inf:
        raise ValueError(f"rate must be finite and positive, got {rate!r}")
    npid = default_config(n=n, distribution=distribution, decay=decay, mode=mode,
                          quantized=quantized, dt=1.0 / rate,
                          error_grid=GridSpec(-2.0, 2.0, n, distribution),
                          integral_grid=GridSpec(-0.1, 0.1, n, "quadratic"))
    cfg = ExperimentConfig(npid=npid, setpoint=setpoint, **fields)
    return cfg if cfg.label else replace(
        cfg, label=f"{cfg.controller}-n{n}-{distribution}")


@dataclass
class TraceRecord:
    """Per-control-tick time series of one closed-loop run.

    Bin columns are -1 for a controller without bins (the baseline).
    """

    columns = ("t", "z", "vz", "z_meas", "target", "error_bin", "integral_bin",
               "deriv_bin", "u_bin", "u_newton", "thrust_total")

    t: list[float] = field(default_factory=list)
    z: list[float] = field(default_factory=list)
    vz: list[float] = field(default_factory=list)
    z_meas: list[float] = field(default_factory=list)
    target: list[float] = field(default_factory=list)
    error_bin: list[int] = field(default_factory=list)
    integral_bin: list[int] = field(default_factory=list)
    deriv_bin: list[int] = field(default_factory=list)
    u_bin: list[int] = field(default_factory=list)
    u_newton: list[float] = field(default_factory=list)
    thrust_total: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.t)

    def write_csv(self, path) -> None:
        write_csv_rows(path, self.columns,
                       zip(*(getattr(self, c) for c in self.columns)))


@dataclass(frozen=True)
class RunMetrics:
    rise_time: float             # s, 10% -> 90% of the commanded step
    overshoot: float             # m beyond the set-point (0 if never crossed)
    overshoot_pct: float         # % of the step magnitude
    settling_time: float         # s until permanently inside the band
    settled: bool
    steady_state_error: float    # m, mean error over the last second
    saturation_fraction: float   # fraction of ticks at the output limits


def _metrics(trace: TraceRecord, cfg: ExperimentConfig,
             meas_grid: ValueGrid) -> RunMetrics:
    z = trace.z
    zs = np.array(z)  # float64: each array op below rounds as its scalar form
    sp = cfg.setpoint
    z0 = z[0]
    step = sp - z0
    n = len(z)
    dt = cfg.npid.dt

    # Band: the set-point's measurement bin plus one bin either side.  The
    # altitudes are finite, so searchsorted is encode's bisect_left.
    sp_bin = encode(meas_grid, sp)
    z_bins = np.searchsorted(meas_grid._boundaries, zs, side="left")
    out_of_band = np.flatnonzero(np.abs(z_bins - sp_bin) > 1)
    last_out = int(out_of_band[-1]) if len(out_of_band) else -1
    settled = last_out < n - 1  # inside the band from last_out + 1 on
    settling_time = (last_out + 1) * dt if settled else math.inf

    if step == 0:
        rise = 0.0
    else:
        frac = (zs - z0) / step

        def first(level):  # the first tick at or past level, in seconds
            k = np.flatnonzero(frac >= level)
            return int(k[0]) * dt if len(k) else math.inf

        t10, t90 = first(0.1), first(0.9)
        rise = t90 - t10 if math.isfinite(t90) and math.isfinite(t10) else math.inf

    over = max(0.0, float(zs.max()) - sp)  # a run starts at z = 0 <= sp
    over_pct = 100.0 * over / step if step != 0 else 0.0

    tail = max(1, int(round(1.0 / dt)))  # the last second
    # Left to right, not sum(): from Python 3.12 it compensates float
    # sums, which would move the metric with the interpreter version.
    total = 0.0
    for zz in z[-tail:]:
        total += zz
    sse = abs(sp - total / len(z[-tail:]))

    out_hi = cfg.npid.output_grid.hi
    sat = int(np.count_nonzero(np.abs(trace.u_newton) >= out_hi)) / n

    return RunMetrics(rise_time=rise, overshoot=over, overshoot_pct=over_pct,
                      settling_time=settling_time, settled=settled,
                      steady_state_error=sse, saturation_fraction=sat)


def _npid(cfg: ExperimentConfig):
    """The spiking controller, recording its bins and no raster."""
    net = build_npid(cfg.npid)
    net.record_raster(True, raster=False)
    bins = attrgetter("error_bin", "integral_bin", "deriv_bin", "output_bin")
    return net.step, lambda: bins(net.fetch_trace())


def _baseline(cfg: ExperimentConfig):
    """The discrete PID with the spiking controller's gains, output clamp
    and integral leak, fed the same sensor derivative, so a comparison
    isolates the position coding."""
    state, npid = PidState(), cfg.npid
    clamp = (npid.output_grid.lo, npid.output_grid.hi)

    def step(setpoint, z_meas, d_meas):
        return pid_step(state, setpoint, z_meas, npid.dt, npid.gains,
                        clamp=clamp, lam=npid.decay, derivative=d_meas)

    return step, lambda: tuple([-1] * cfg.ticks for _ in range(4))


# The one list of closed-loop controllers, by ExperimentConfig.controller:
# cfg -> (step, bins).  step(setpoint, z_meas, d_meas) is one tick's thrust
# offset [N]; bins() is the run's error, integral, derivative and output
# bin columns.
CONTROLLERS = {"npid": _npid, "baseline": _baseline}


def run_step_response(cfg: ExperimentConfig) -> tuple[TraceRecord, RunMetrics]:
    """Closed loop from rest: sense, control, then integrate the plant
    through the physics sub-steps of one control period in one call."""
    dt_ctrl = cfg.npid.dt
    substeps = cfg.physics_substeps
    n_ticks = cfg.ticks
    setpoint, params, beta = cfg.setpoint, cfg.plant, cfg.battery_beta
    plant = PlantState()
    advance = Integrator(params, dt_ctrl / substeps, substeps).advance
    sensor = SensorModel(quantum=cfg.sensor_quantum, window=cfg.sensor_window)
    hover = hover_thrust(params)
    trace = TraceRecord()

    step, bins = CONTROLLERS[cfg.controller](cfg)
    z_add, vz_add, z_meas_add = trace.z.append, trace.vz.append, trace.z_meas.append
    u_add, thrust_add = trace.u_newton.append, trace.thrust_total.append

    for _ in range(n_ticks):
        z_meas, climb = sense(sensor, plant, dt_ctrl)
        # The controller takes the error derivative; with a constant
        # set-point that is the negated climb rate.
        u = step(setpoint, z_meas, -climb)
        thrust_cmd = hover + u + battery_sag(plant.t, beta)

        z_add(plant.z)
        vz_add(plant.vz)
        z_meas_add(z_meas)
        u_add(u)
        thrust_add(thrust_cmd)

        advance(plant, thrust_cmd)

    trace.t = [k * dt_ctrl for k in range(n_ticks)]
    trace.target = [setpoint] * n_ticks
    trace.error_bin, trace.integral_bin, trace.deriv_bin, trace.u_bin = bins()

    meas_grid = cfg.npid.target_grid.build()
    return trace, _metrics(trace, cfg, meas_grid)


# -- exhaustive adder verification -------------------------------------------


@dataclass
class AdderCheckReport:
    n: int
    distribution: str
    mode: str
    quantized: bool
    pairs: int
    exact: int
    within_one: int
    max_deviation: int
    mismatches: list = field(default_factory=list)  # first few (i, j, got, want)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Float weights must match the oracle exactly; quantized weights
        may deviate by one bin."""
        if self.quantized:
            return self.within_one == self.pairs
        return self.exact == self.pairs

    def summary(self) -> str:
        kind = "quantized" if self.quantized else "float"
        return (f"adder n={self.n} {self.distribution}/{self.mode}/{kind}: "
                f"{self.exact}/{self.pairs} exact, "
                f"{self.within_one}/{self.pairs} within 1 bin, "
                f"max deviation {self.max_deviation} "
                f"[{'OK' if self.ok else 'MISMATCH'}] ({self.elapsed_s:.2f}s)")


def verify_adder(n: int, distribution: str = "uniform", mode: str = "nearest",
                 quantized: bool = False, lo: float = -1.25,
                 hi: float = 1.25) -> AdderCheckReport:
    """Exhaustively compare a two-input adder's spike propagation with the
    arithmetic oracle over all n^2 input-bin pairs.

    The canonical setup adds two populations on [lo, hi] into an output
    grid spanning the full sum range with 2n-1 values.  The oracle bins
    come from round_to_grid on the summed grid values; the oracle never
    touches the spiking path.  The spiking bins come from
    AdderUnit.eval_all_pairs, which propagates one pair per aggregate
    firing class; every pair is still compared with the oracle.
    """
    if n > 1001:
        raise ValueError("n must be <= 1001, as verification enumerates n^2 "
                         f"pairs; got {n!r}")
    t0 = time.perf_counter()
    g_in = make_grid(lo, hi, n, distribution)
    g_out = make_grid(2 * lo, 2 * hi, 2 * n - 1, distribution)
    unit = build_adder([(g_in, 1, 1.0), (g_in, 1, 1.0)], g_out,
                       mode=mode, quantized=quantized, name="check")

    got = unit.eval_all_pairs().ravel()
    vals = np.asarray(g_in.values)
    want = round_to_grid(g_out, np.add.outer(vals, vals).ravel(), mode)
    dev = np.abs(got - want)
    counts = np.bincount(dev)  # pairs per deviation, up to the largest
    return AdderCheckReport(
        n=n, distribution=distribution, mode=mode, quantized=quantized,
        pairs=n * n, exact=int(counts[0]), within_one=int(counts[:2].sum()),
        max_deviation=len(counts) - 1,
        mismatches=[(k // n, k % n, int(got[k]), int(want[k]))
                    for k in np.flatnonzero(dev)[:10].tolist()],
        elapsed_s=time.perf_counter() - t0)


# -- throughput ---------------------------------------------------------------


@dataclass(frozen=True)
class BenchReport:
    n: int
    ticks: int
    ticks_per_second: float
    mean_us: float
    p99_us: float

    def summary(self) -> str:
        return (f"n={self.n}: {self.ticks_per_second:,.0f} ticks/s over "
                f"{self.ticks:,} ticks (mean {self.mean_us:.2f} us, "
                f"p99 {self.p99_us:.2f} us)")


def bench(config: NpidConfig | None = None, ticks: int = 1_000_000) -> BenchReport:
    """Wall-clock throughput of the controller step.

    Drives the network with a fixed pseudo-random input cycle over its
    target and derivative grids; reports mean throughput over all ticks
    plus per-tick latency percentiles measured on a second pass of
    min(20,000, ticks) ticks.
    """
    if not isinstance(ticks, numbers.Integral) or ticks < 1:
        raise ValueError(f"ticks must be an integer >= 1, got {ticks!r}")
    cfg = config or default_config(n=15, distribution="quadratic")
    net = build_npid(cfg)
    rng = np.random.default_rng(0)
    cycle = 1024
    tm, dg = cfg.target_grid, cfg.derivative_grid
    targets, meas = rng.uniform(tm.lo, tm.hi, (2, cycle)).tolist()
    derivs = rng.uniform(dg.lo, dg.hi, cycle).tolist()

    step = net.step
    for k in range(cycle):  # warmup
        step(targets[k], meas[k], derivs[k])
    net.reset()

    t0 = time.perf_counter()
    for k in range(ticks):
        i = k & (cycle - 1)
        step(targets[i], meas[i], derivs[i])
    elapsed = time.perf_counter() - t0

    lat = []
    take = min(20_000, ticks)
    for k in range(take):
        i = k & (cycle - 1)
        t1 = time.perf_counter()
        step(targets[i], meas[i], derivs[i])
        lat.append(time.perf_counter() - t1)
    lat.sort()
    p99 = lat[min(len(lat) - 1, int(0.99 * len(lat)))] * 1e6

    return BenchReport(
        n=cfg.output_grid.n,
        ticks=ticks,
        ticks_per_second=ticks / elapsed,
        mean_us=elapsed / ticks * 1e6,
        p99_us=p99,
    )


# -- batch experiments ---------------------------------------------------------


SUMMARY_COLUMNS = ("label", "controller", "setpoint", "n", "distribution",
                   "rise_time", "overshoot_pct", "settling_time", "settled",
                   "steady_state_error", "saturation_fraction")


def _summary_row(cfg: ExperimentConfig, metrics: RunMetrics) -> dict:
    return {
        "label": cfg.label,
        "controller": cfg.controller,
        "setpoint": cfg.setpoint,
        "n": cfg.npid.output_grid.n,
        "distribution": cfg.npid.output_grid.distribution,
        "rise_time": metrics.rise_time,
        "overshoot_pct": metrics.overshoot_pct,
        "settling_time": metrics.settling_time,
        "settled": metrics.settled,
        "steady_state_error": metrics.steady_state_error,
        "saturation_fraction": metrics.saturation_fraction,
    }


def compare(cfgs) -> list[dict]:
    """Run each config and return one summary row per run."""
    rows = []
    for cfg in cfgs:
        _, metrics = run_step_response(cfg)
        rows.append(_summary_row(cfg, metrics))
    return rows


def write_summary_csv(rows, path) -> None:
    write_csv_rows(path, SUMMARY_COLUMNS,
                   ([r[c] for c in SUMMARY_COLUMNS] for r in rows))


# -- artifact emission ----------------------------------------------------------


def write_svg(series, path, setpoint: float | None = None, band: float = 0.0) -> None:
    """Minimal 640x360 line plot: one polyline per (label, xs, ys) series."""
    width, height, pad = 640, 360, 40
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if setpoint is not None:
        ys_all = ys_all + [setpoint + band, setpoint - band]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    y0 -= 0.05 * (y1 - y0)
    y1 += 0.05 * (y1 - y0)

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if setpoint is not None:
        top, bot = sy(setpoint + band), sy(setpoint - band)
        parts.append(
            f'<rect x="{pad}" y="{top:.2f}" width="{width - 2 * pad}" '
            f'height="{max(bot - top, 1.0):.2f}" fill="#cccccc" opacity="0.5"/>'
        )
        parts.append(
            f'<line x1="{pad}" y1="{sy(setpoint):.2f}" x2="{width - pad}" '
            f'y2="{sy(setpoint):.2f}" stroke="#888888" stroke-dasharray="4,3"/>'
        )
    for k, (label, xs, ys) in enumerate(series):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"><title>{label}</title></polyline>')
        parts.append(f'<text x="{pad + 4}" y="{pad + 14 + 14 * k}" '
                     f'fill="{color}" font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


# -- config file ----------------------------------------------------------------


_GRIDS = ("target", "error", "integral", "derivative", "output")

# Every key a config file may set, by section ("" is the file itself),
# with its JSON type.  The experiment keys and grids.n /
# grids.distribution are step_experiment's parameters; plant's are the
# PlantParams fields plus battery_beta.
_CONFIG_KEYS = {
    "": dict.fromkeys(("gains", "grids", "plant", "sensor", "experiment"), "object"),
    "gains": dict.fromkeys(("kp", "ti", "td"), "number"),
    "grids": {"n": "integer", "distribution": "string", **dict.fromkeys(_GRIDS, "object")},
    "grids.<name>": {"range": "range", "n": "integer", "distribution": "string"},
    "plant": dict.fromkeys([f.name for f in fields(PlantParams)] + ["battery_beta"],
                           "number"),
    "sensor": {"quantum": "number", "window": "integer"},
    "experiment": {**dict.fromkeys(("setpoint", "decay", "duration", "rate"), "number"),
                   **dict.fromkeys(("controller", "mode", "label"), "string"),
                   "quantized": "boolean"},
}
_JSON_TYPES = {"object": ("an object", dict), "number": ("a number", (int, float)),
               "integer": ("an integer", int), "string": ("a string", str),
               "boolean": ("true or false", bool),
               "range": ("a list [lo, hi] of two numbers", list)}


def _is_json(value, kind: str) -> bool:
    """Whether value has the JSON type kind: a number is an int or a
    float but not a bool, and a range is a list of two numbers."""
    if not (isinstance(value, _JSON_TYPES[kind][1])
            and isinstance(value, bool) == (kind == "boolean")):
        return False
    return kind != "range" or len(value) == 2 and all(_is_json(v, "number") for v in value)


def _read_section(value, section: str, row: str | None = None) -> dict:
    """A copy of the config object value at section, checked against its
    row of _CONFIG_KEYS: a key the row does not name (most likely a
    typo) or a value of another JSON type raises ValueError naming it as
    section.key.  A key the file leaves out is not in the copy, so it
    keeps the default of the call the copy is passed to."""
    if not isinstance(value, dict):
        raise ValueError(f"config {section or 'file'} must be an object, got {value!r}")
    kinds = _CONFIG_KEYS[section if row is None else row]
    prefix = section + "." if section else ""
    unknown = [prefix + key for key in value if key not in kinds]
    if unknown:
        raise ValueError(f"unknown config key {', '.join(unknown)}")
    for key, v in value.items():
        if not _is_json(v, kinds[key]):
            raise ValueError(f"{prefix}{key} must be {_JSON_TYPES[kinds[key]][0]}, "
                             f"got {v!r}")
    return dict(value)


def load_config(path) -> ExperimentConfig:
    """Read an experiment config JSON with sections gains / grids / plant
    / sensor / experiment; every field is optional and defaults to the
    run step_experiment builds.  An unknown section or key, or a value
    of the wrong JSON type, raises ValueError naming it as section.key."""
    with open(path) as f:
        raw = _read_section(json.load(f), "")
    gains, grids, plant, sensor, exp = (_read_section(raw.get(name, {}), name)
                                        for name in _CONFIG_KEYS[""])
    label = exp.pop("label", "")  # unlabelled unless the file names it
    specs = {name: grids.pop(name, {}) for name in _GRIDS}
    run = step_experiment(**exp, **grids)

    def grid(name):
        spec = getattr(run.npid, f"{name}_grid")
        g = _read_section(specs[name], f"grids.{name}", "grids.<name>")
        lo, hi = g.pop("range", (spec.lo, spec.hi))
        return replace(spec, lo=lo, hi=hi, **g)

    npid = replace(run.npid, gains=PidGains(**gains),
                   **{f"{name}_grid": grid(name) for name in _GRIDS})
    beta = plant.pop("battery_beta", run.battery_beta)
    try:
        plant = PlantParams(**plant)
    except ValueError as e:
        raise ValueError(f"plant.{e}") from None
    return replace(run, npid=npid, plant=plant, battery_beta=beta, label=label,
                   **{f"sensor_{key}": value for key, value in sensor.items()})
