"""Closed-loop experiments and verification harness.

Runs the spiking controller (or the conventional baseline) against the
vertical plant, computes step-response metrics, verifies adder units
exhaustively against the arithmetic oracle, benchmarks tick throughput
and writes deterministic CSV/SVG artifacts.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .controller import GridSpec, NpidConfig, NpidNetwork, build_npid, default_config
from .grids import ValueGrid, encode, make_grid
from .plant import (
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
    "ExperimentConfig",
    "TraceRecord",
    "RunMetrics",
    "run_step_response",
    "AdderCheckReport",
    "verify_adder",
    "BenchReport",
    "bench",
    "sweep",
    "compare",
    "emit",
    "load_config",
]


def experiment_npid_config(n: int = 151, distribution: str = "uniform",
                           decay: float = 0.92, mode: str = "nearest",
                           quantized: bool = False,
                           rate: float = 70.0) -> NpidConfig:
    """Controller config tuned for the closed-loop experiments.

    On top of the stock config this narrows the error grid to +/-2 m
    (errors past 1.44 m saturate the proportional term anyway, so the
    finer bins are free) and uses a +/-0.1 quadratic integral grid: the
    nearest-rounded recurrence only sheds an integral bin when the decay
    step exceeds half a bin, so fine central bins plus a decay of 0.92
    let the wound-up integral drain instead of parking the loop off
    target.
    """
    cfg = default_config(n=n, distribution=distribution, decay=decay,
                         mode=mode, quantized=quantized, dt=1.0 / rate)
    return replace(cfg,
                   error_grid=GridSpec(-2.0, 2.0, n, distribution),
                   integral_grid=GridSpec(-0.1, 0.1, n, "quadratic"))


@dataclass(frozen=True)
class ExperimentConfig:
    """One closed-loop run: controller, plant, sensor and timing."""

    controller: str = "npid"  # "npid" | "baseline"
    npid: NpidConfig = field(default_factory=experiment_npid_config)
    plant: PlantParams = field(default_factory=PlantParams)
    sensor_quantum: float = 0.01
    sensor_window: int = 1
    setpoint: float = 1.5
    duration: float = 20.0
    rate: float = 70.0
    physics_substeps: int = 10
    battery_beta: float = 0.0
    label: str = ""

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ValueError, naming the field, for a value no run can use."""
        if self.controller not in ("npid", "baseline"):
            raise ValueError(
                f"controller must be 'npid' or 'baseline', got {self.controller!r}")
        for name in ("duration", "rate"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if (not isinstance(self.physics_substeps, numbers.Integral)
                or self.physics_substeps < 1):
            raise ValueError("physics_substeps must be an integer >= 1, "
                             f"got {self.physics_substeps!r}")
        if not math.isfinite(self.setpoint):
            raise ValueError(f"setpoint must be finite, got {self.setpoint!r}")
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
        self.npid.validate()


def step_experiment(setpoint: float = 1.5, n: int = 151,
                    distribution: str = "uniform", controller: str = "npid",
                    decay: float = 0.92, mode: str = "nearest",
                    quantized: bool = False, duration: float = 20.0,
                    rate: float = 70.0, label: str = "") -> ExperimentConfig:
    """Convenience builder for the standard altitude step response, on
    the experiment_npid_config grid layout."""
    cfg = experiment_npid_config(n=n, distribution=distribution, decay=decay,
                                 mode=mode, quantized=quantized, rate=rate)
    return ExperimentConfig(controller=controller, npid=cfg, setpoint=setpoint,
                            duration=duration, rate=rate,
                            label=label or f"{controller}-n{n}-{distribution}")


@dataclass
class TraceRecord:
    """Per-control-tick time series of one closed-loop run.

    Bin columns are -1 for the baseline controller, which has no bins.
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

    def row(self, k: int) -> tuple:
        return tuple(getattr(self, c)[k] for c in self.columns)

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write(",".join(self.columns) + "\n")
            for k in range(len(self)):
                f.write(",".join(repr(v) if isinstance(v, float) else str(v)
                                 for v in self.row(k)) + "\n")


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
    sp = cfg.setpoint
    z0 = z[0]
    step = sp - z0
    n = len(z)
    dt = 1.0 / cfg.rate

    # Band: the set-point's measurement bin plus one bin either side.
    sp_bin = encode(meas_grid, sp)
    in_band = [abs(encode(meas_grid, zz) - sp_bin) <= 1 for zz in z]
    last_out = -1
    for k in range(n):
        if not in_band[k]:
            last_out = k
    settled = last_out < n - 1 and any(in_band)
    settling_time = (last_out + 1) * dt if settled else math.inf

    if step == 0:
        rise = 0.0
    else:
        frac = [(zz - z0) / step for zz in z]
        t10 = next((k * dt for k, fr in enumerate(frac) if fr >= 0.1), math.inf)
        t90 = next((k * dt for k, fr in enumerate(frac) if fr >= 0.9), math.inf)
        rise = t90 - t10 if math.isfinite(t90) and math.isfinite(t10) else math.inf

    if step >= 0:
        over = max(0.0, max(z) - sp)
    else:
        over = max(0.0, sp - min(z))
    over_pct = 100.0 * over / abs(step) if step != 0 else 0.0

    tail = max(1, int(round(cfg.rate)))
    sse = abs(sp - sum(z[-tail:]) / len(z[-tail:]))

    out_hi = cfg.npid.output_grid.hi
    sat = sum(1 for u in trace.u_newton if abs(u) >= out_hi) / n

    return RunMetrics(rise_time=rise, overshoot=over, overshoot_pct=over_pct,
                      settling_time=settling_time, settled=settled,
                      steady_state_error=sse, saturation_fraction=sat)


def run_step_response(cfg: ExperimentConfig) -> tuple[TraceRecord, RunMetrics]:
    """Closed loop from rest: sense, control, then integrate the plant
    through the physics sub-steps of one control period in one call."""
    dt_ctrl = 1.0 / cfg.rate
    dt_phys = dt_ctrl / cfg.physics_substeps
    n_ticks = int(round(cfg.duration * cfg.rate))
    plant = PlantState()
    sensor = SensorModel(quantum=cfg.sensor_quantum, window=cfg.sensor_window)
    hover = hover_thrust(cfg.plant)
    trace = TraceRecord()

    net: NpidNetwork | None = None
    pid_st: PidState | None = None
    if cfg.controller == "npid":
        net = build_npid(cfg.npid)
        net.record_raster(True, raster=False)  # bins only
    else:
        pid_st = PidState()
    out_grid = cfg.npid.output_grid

    for k in range(n_ticks):
        z_meas, climb = sense(sensor, plant, dt_ctrl)
        # The controller takes the error derivative; with a constant
        # set-point that is the negated climb rate.
        d_meas = -climb
        if net is not None:
            u = net.step(cfg.setpoint, z_meas, d_meas)
        else:
            # Same output clamp and integral leak as the spiking
            # controller, so the comparison isolates the position coding.
            u = pid_step(pid_st, cfg.setpoint, z_meas, dt_ctrl, cfg.npid.gains,
                         clamp=(out_grid.lo, out_grid.hi), lam=cfg.npid.decay)
        thrust_cmd = hover + u + battery_sag(plant.t, cfg.battery_beta)

        trace.t.append(k * dt_ctrl)
        trace.z.append(plant.z)
        trace.vz.append(plant.vz)
        trace.z_meas.append(z_meas)
        trace.target.append(cfg.setpoint)
        trace.u_newton.append(u)
        trace.thrust_total.append(thrust_cmd)

        plant = plant_step(plant, thrust_cmd, dt_phys, cfg.plant,
                           cfg.physics_substeps)

    if net is not None:
        bins = net.fetch_trace()
        trace.error_bin, trace.integral_bin = bins.error_bin, bins.integral_bin
        trace.deriv_bin, trace.u_bin = bins.deriv_bin, bins.output_bin
    else:
        trace.error_bin, trace.integral_bin = [-1] * n_ticks, [-1] * n_ticks
        trace.deriv_bin, trace.u_bin = [-1] * n_ticks, [-1] * n_ticks

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


# Input pairs per eval_bins call.  Bounds the call's firing arrays, one
# byte per pair for each of the adder's neurons, whatever n is.
VERIFY_CHUNK = 4096


def verify_adder(n: int, distribution: str = "uniform", mode: str = "nearest",
                 quantized: bool = False, lo: float = -1.25,
                 hi: float = 1.25) -> AdderCheckReport:
    """Exhaustively compare a two-input adder's spike propagation with the
    arithmetic oracle over all n^2 input-bin pairs.

    The canonical setup adds two populations on [lo, hi] into an output
    grid spanning the full sum range with 2n-1 values.  The spiking bins
    come from AdderUnit.eval_bins, the oracle bins from round_to_grid on
    the summed grid values; the oracle never touches the spiking path.
    """
    if n > 1001:
        raise ValueError("verification enumerates n^2 pairs; n must be <= 1001")
    t0 = time.perf_counter()
    g_in = make_grid(lo, hi, n, distribution)
    g_out = make_grid(2 * lo, 2 * hi, 2 * n - 1, distribution)
    unit = build_adder([(g_in, 1, 1.0), (g_in, 1, 1.0)], g_out,
                       mode=mode, quantized=quantized, name="check")

    vals = np.asarray(g_in.values)
    report = AdderCheckReport(n=n, distribution=distribution, mode=mode,
                              quantized=quantized, pairs=n * n,
                              exact=0, within_one=0, max_deviation=0)
    for start in range(0, n * n, VERIFY_CHUNK):
        flat = np.arange(start, min(start + VERIFY_CHUNK, n * n))
        idx = np.column_stack(np.divmod(flat, n))  # row-major (i, j)
        got = unit.eval_bins(idx)[0]
        want = round_to_grid(g_out, vals[idx[:, 0]] + vals[idx[:, 1]], mode)
        dev = np.abs(got - want)
        report.exact += int((dev == 0).sum())
        report.within_one += int((dev <= 1).sum())
        report.max_deviation = max(report.max_deviation, int(dev.max()))
        for k in np.flatnonzero(dev)[:10 - len(report.mismatches)]:
            report.mismatches.append(
                (int(idx[k, 0]), int(idx[k, 1]), int(got[k]), int(want[k]))
            )
    report.elapsed_s = time.perf_counter() - t0
    return report


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


def bench(config: NpidConfig | None = None, ticks: int = 1_000_000,
          seed: int = 0, latency_samples: int = 20_000) -> BenchReport:
    """Wall-clock throughput of the controller step.

    Drives the network with a fixed pseudo-random input cycle; reports
    mean throughput over all ticks plus per-tick latency percentiles
    measured on a sample.
    """
    cfg = config or default_config(n=15, distribution="quadratic")
    net = build_npid(cfg)
    rng = np.random.default_rng(seed)
    cycle = 1024
    targets = rng.uniform(0.0, 4.0, cycle).tolist()
    meas = rng.uniform(0.0, 4.0, cycle).tolist()
    derivs = rng.uniform(-0.5, 0.5, cycle).tolist()

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
    take = min(latency_samples, ticks)
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


def sweep(setpoints, neuron_counts, distribution_for=None, **kwargs) -> list[dict]:
    """Cross product of set-points and population sizes.

    distribution_for optionally maps a neuron count to its distribution;
    counts it leaves out are uniform.
    """
    dists = distribution_for or {}
    return compare([step_experiment(setpoint=sp, n=n,
                                    distribution=dists.get(n, "uniform"), **kwargs)
                    for n in neuron_counts for sp in setpoints])


def write_summary_csv(rows, path) -> None:
    with open(path, "w") as f:
        f.write(",".join(SUMMARY_COLUMNS) + "\n")
        for r in rows:
            f.write(",".join(
                repr(v) if isinstance(v, float) else str(v)
                for v in (r[c] for c in SUMMARY_COLUMNS)
            ) + "\n")


# -- artifact emission ----------------------------------------------------------


def emit(trace: TraceRecord, fmt: str, path, setpoint: float | None = None,
         band: float = 0.0) -> None:
    """Write a trace as CSV or as a simple SVG altitude plot with the
    set-point band shaded."""
    if fmt == "csv":
        trace.write_csv(path)
    elif fmt == "svg":
        sp = setpoint if setpoint is not None else (trace.target[0] if trace.target else 0.0)
        write_svg([("altitude", trace.t, trace.z)], path, setpoint=sp, band=band)
    else:
        raise ValueError(f"unknown emit format {fmt!r}")


def write_svg(series, path, setpoint: float | None = None, band: float = 0.0,
              width: int = 640, height: int = 360) -> None:
    """Minimal line plot: one polyline per (label, xs, ys) series."""
    pad = 40
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


def _object(value, name: str) -> dict:
    """A copy of a config object, so reads can pop their keys from it."""
    if not isinstance(value, dict):
        raise ValueError(f"config {name or 'file'} must be an object, got {value!r}")
    return dict(value)


def _no_leftovers(d: dict, prefix: str) -> None:
    """Every key a section's reads did not pop is unknown, most likely a typo."""
    if d:
        names = ", ".join(prefix + key for key in d)
        raise ValueError(f"unknown config key {names}")


def load_config(path) -> ExperimentConfig:
    """Read an experiment config JSON with sections gains / grids / plant
    / sensor / experiment; every field is optional and defaults to the
    stock altitude-control setup.  Each read pops its key, and a section
    or key left unread raises ValueError naming it as section.key."""
    with open(path) as f:
        raw = _object(json.load(f), "")
    gains_d = _object(raw.pop("gains", {}), "gains")
    grids = _object(raw.pop("grids", {}), "grids")
    plant_d = _object(raw.pop("plant", {}), "plant")
    sensor_d = _object(raw.pop("sensor", {}), "sensor")
    exp = _object(raw.pop("experiment", {}), "experiment")
    _no_leftovers(raw, "")

    gains = PidGains(kp=gains_d.pop("kp", 0.87), ti=gains_d.pop("ti", 0.17),
                     td=gains_d.pop("td", 2.76))
    _no_leftovers(gains_d, "gains.")

    n = grids.pop("n", 151)
    dist = grids.pop("distribution", "uniform")
    rate = exp.pop("rate", 70.0)
    cfg = experiment_npid_config(n=n, distribution=dist,
                                 decay=exp.pop("decay", 0.92),
                                 mode=exp.pop("mode", "nearest"),
                                 quantized=exp.pop("quantized", False),
                                 rate=rate)
    cfg = replace(cfg, gains=gains)

    def grid_override(name, default_spec):
        if name not in grids:
            return default_spec
        g = _object(grids.pop(name), f"grids.{name}")
        lo, hi = g.pop("range")
        spec = GridSpec(lo, hi, g.pop("n", n),
                        g.pop("distribution", default_spec.distribution))
        _no_leftovers(g, f"grids.{name}.")
        return spec

    cfg = replace(
        cfg,
        target_grid=grid_override("target", cfg.target_grid),
        error_grid=grid_override("error", cfg.error_grid),
        derivative_grid=grid_override("derivative", cfg.derivative_grid),
        output_grid=grid_override("output", cfg.output_grid),
        integral_grid=(grid_override("integral", cfg.resolved_integral_grid())
                       if "integral" in grids else cfg.integral_grid),
    )
    _no_leftovers(grids, "grids.")

    plant = PlantParams(
        mass=plant_d.pop("mass", 0.68),
        drag=plant_d.pop("drag", 0.25),
        motor_tau=plant_d.pop("motor_tau", 0.02),
        hover_adjust=plant_d.pop("hover_adjust", 0.0),
    )
    run = ExperimentConfig(
        controller=exp.pop("controller", "npid"),
        npid=cfg,
        plant=plant,
        sensor_quantum=sensor_d.pop("quantum", 0.01),
        sensor_window=sensor_d.pop("window", 1),
        setpoint=exp.pop("setpoint", 1.5),
        duration=exp.pop("duration", 20.0),
        rate=rate,
        battery_beta=plant_d.pop("battery_beta", 0.0),
        label=exp.pop("label", ""),
    )
    _no_leftovers(plant_d, "plant.")
    _no_leftovers(sensor_d, "sensor.")
    _no_leftovers(exp, "experiment.")
    return run
