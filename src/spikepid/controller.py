"""The full spiking PID: error, decayed integral and gain-fused control
units composed over position-coded populations.

Dataflow per control tick (all signals one-hot):

    target, measurement -> subtractor -> error bin
    error bin + last integral bin (delay-1 self loop)
        -> integral unit (lam * prev + error * dt) -> integral bin
    error bin + integral bin + derivative input
        -> control unit -> output bin -> decoded thrust offset

Gains are fused into the control unit's synaptic weights (kp, kp/ti,
kp*td times the source bin values); the derivative is supplied as an
encoded input rather than computed from spikes.  The integral unit's
recurrent edge carries last tick's integral bin with its weights scaled
by the decay factor, and the integral grid itself bounds wind-up: the
saturating winner-takes-all cannot leave the grid.

With every population at resolution N the three units hold 6N + 3
neurons, plus 3N input neurons (target, measurement, derivative).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .grids import QUADRATIC, UNIFORM, ValueGrid, encode, make_grid
from .netlist import Netlist, export_netlist
from .reference import PidGains
from .units import LAYER_INPUT, MODE_FLOOR, MODE_NEAREST, InputSpec, build_adder

__all__ = [
    "GridSpec",
    "NpidGrids",
    "NpidConfig",
    "default_config",
    "NpidNetwork",
    "SpikeTrace",
    "build_npid",
]


def write_csv_rows(path, header, rows) -> None:
    """Write a CSV: repr for floats, so they read back exactly, str for the rest."""
    with open(path, "w") as f:
        for row in (header, *rows):
            f.write(",".join(repr(v) if isinstance(v, float) else str(v)
                             for v in row) + "\n")


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    n: int
    distribution: str = "uniform"

    def build(self) -> ValueGrid:
        return make_grid(self.lo, self.hi, self.n, self.distribution)

    def validate(self, name: str) -> None:
        """Raise ValueError, naming the field as name.attribute, for a
        grid that make_grid cannot build."""
        if not isinstance(self.n, numbers.Integral) or self.n < 2:
            raise ValueError(f"{name}.n must be an integer >= 2, got {self.n!r}")
        for end in ("lo", "hi"):
            if not math.isfinite(getattr(self, end)):
                raise ValueError(
                    f"{name}.{end} must be finite, got {getattr(self, end)!r}")
        if not self.lo < self.hi:
            raise ValueError(
                f"{name}.lo must be < {name}.hi, got [{self.lo!r}, {self.hi!r}]")
        if self.distribution not in (UNIFORM, QUADRATIC):
            raise ValueError(f"{name}.distribution must be {UNIFORM!r} or "
                             f"{QUADRATIC!r}, got {self.distribution!r}")
        if self.distribution == QUADRATIC and self.lo != -self.hi:
            raise ValueError(f"{name}.lo must equal -{name}.hi for a quadratic "
                             f"grid, got [{self.lo!r}, {self.hi!r}]")


@dataclass(frozen=True)
class NpidGrids:
    """The five built value grids of one controller instance."""

    target_measurement: ValueGrid
    error: ValueGrid
    integral: ValueGrid
    derivative: ValueGrid
    output: ValueGrid


@dataclass(frozen=True)
class NpidConfig:
    """Gains, timing and grid layout of one spiking PID instance.

    decay (0 < decay <= 1) multiplies the recurrent integral weights;
    1.0 keeps the plain running sum.  mode selects floor-toward-zero or
    nearest rounding at every stage; quantized constrains all synaptic
    weights to even integers in [-256, 254].
    """

    gains: PidGains = field(default_factory=PidGains)
    dt: float = 1.0 / 70.0
    decay: float = 1.0
    mode: str = "nearest"
    quantized: bool = False
    target_grid: GridSpec = GridSpec(0.0, 4.0, 151)
    error_grid: GridSpec = GridSpec(-4.0, 4.0, 151)
    integral_grid: GridSpec | None = None  # default sized from gains/output
    derivative_grid: GridSpec = GridSpec(-0.5, 0.5, 151)
    output_grid: GridSpec = GridSpec(-1.25, 1.25, 151)

    def validate(self) -> None:
        """Raise ValueError, naming the field, for a value no build can use."""
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {self.dt!r}")
        if not 0 < self.decay <= 1:
            raise ValueError(f"decay must lie in (0, 1], got {self.decay!r}")
        if self.mode not in (MODE_FLOOR, MODE_NEAREST):
            raise ValueError(f"mode must be {MODE_FLOOR!r} or {MODE_NEAREST!r}, "
                             f"got {self.mode!r}")
        for name in ("target_grid", "error_grid", "integral_grid",
                     "derivative_grid", "output_grid"):
            spec = getattr(self, name)
            if spec is not None:  # a None integral grid is sized on build
                spec.validate(name)

    def resolved_integral_grid(self) -> GridSpec:
        """Integral grid, sized by default so a full-scale integral alone
        can just saturate the output: +/- output.hi * ti / kp."""
        if self.integral_grid is not None:
            return self.integral_grid
        bound = self.output_grid.hi * self.gains.ti / self.gains.kp
        return GridSpec(-bound, bound, self.output_grid.n,
                        self.output_grid.distribution)

    def build_grids(self) -> NpidGrids:
        """Validate, then build the five grids.  The error, integral and
        output grids must hold the exact value 0: every adder unit splits
        its aggregate layer there."""
        self.validate()
        grids = NpidGrids(
            target_measurement=self.target_grid.build(),
            error=self.error_grid.build(),
            integral=self.resolved_integral_grid().build(),
            derivative=self.derivative_grid.build(),
            output=self.output_grid.build(),
        )
        for name, grid in (("error_grid", grids.error),
                           ("output_grid", grids.output),
                           ("integral_grid", grids.integral)):
            if grid.zero_index is None:
                raise ValueError(f"{name} must contain the value 0, got "
                                 f"[{grid.lo!r}, {grid.hi!r}] with n={grid.n}")
        return grids


def default_config(n: int = 151, distribution: str = "uniform",
                   quantized: bool = False, decay: float = 1.0,
                   mode: str = "nearest", dt: float = 1.0 / 70.0,
                   gains: PidGains | None = None) -> NpidConfig:
    """Config with the stock altitude-control values: gains (0.87, 0.17,
    2.76), target range [0, 4] m, derivative range +/-0.5 m/s, output
    range +/-1.25 N, all populations at resolution n.

    distribution applies to the signed grids (error, integral, output);
    the target/measurement grid is asymmetric and the derivative input is
    already narrow, so both stay uniform.
    """
    return NpidConfig(
        gains=gains or PidGains(),
        dt=dt,
        decay=decay,
        mode=mode,
        quantized=quantized,
        target_grid=GridSpec(0.0, 4.0, n),
        error_grid=GridSpec(-4.0, 4.0, n, distribution),
        integral_grid=None,
        derivative_grid=GridSpec(-0.5, 0.5, n),
        output_grid=GridSpec(-1.25, 1.25, n, distribution),
    )


@dataclass
class SpikeTrace:
    """Per-tick bins of one recording.  With a network (record_raster's
    raster flag) it derives its spike raster from them; else it reads []."""

    dt: float
    target_bin: list[int] = field(default_factory=list)
    measurement_bin: list[int] = field(default_factory=list)
    error_bin: list[int] = field(default_factory=list)
    integral_bin: list[int] = field(default_factory=list)
    deriv_bin: list[int] = field(default_factory=list)
    output_bin: list[int] = field(default_factory=list)
    output_newton: list[float] = field(default_factory=list)
    integral_start: int | None = None  # the delay-1 integral input at tick 0
    network: NpidNetwork | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.output_bin)

    @property
    def raster(self) -> list[tuple[int, str, str]]:
        """(tick, neuron id, layer) of every spike, in netlist neuron order
        within a tick.  Each read re-runs every unit's eval_bins once over all
        ticks and raises AssertionError where a winner is not the recorded bin."""
        net = self.network
        if net is None or not self.output_bin:
            return []
        # Rows ordered so that each unit's inputs, and the input spikes, are slices.
        bins = np.array(([self.integral_start] + self.integral_bin[:-1],
                         self.error_bin, self.integral_bin, self.deriv_bin,
                         self.target_bin, self.measurement_bin, self.output_bin))
        tm, dg = net.grids.target_measurement, net.grids.derivative
        fired = [np.zeros((len(self), 2 * tm.n + dg.n), dtype=bool)]
        fired[0][np.arange(len(self))[:, None],
                 bins[3:6].T + (2 * tm.n, 0, tm.n)] = True  # the input spikes
        winners = []
        for unit, rows in zip(net.units, (slice(4, 6), slice(0, 2), slice(1, 4))):
            w, *masks = unit.eval_bins(bins[rows].T)  # pos, neg, reduce masks
            winners.append(w)
            fired += masks
        recorded = bins[[1, 2, 6]]  # error, integral, output
        wrong = np.array(winners) != recorded
        if wrong.any():
            k, u = np.argwhere(wrong.T)[0]  # the first tick, then its first unit
            raise AssertionError(
                f"raster of unit {net.units[u].name!r} at tick {k}: winner "
                f"{winners[u][k]} is not the recorded bin {recorded[u, k]}")
        if net._raster_ids is None:  # built on the first read, once per network
            neurons = [(f"{name}[{i}]", LAYER_INPUT)
                       for name, grid in net._inputs.items() for i in range(grid.n)]
            neurons += [(n.id, n.layer) for u in net.units for n in u.neuron_specs()]
            net._raster_ids = tuple(np.array(c, dtype=object) for c in zip(*neurons))
        ids, layers = net._raster_ids
        ticks, cols = np.concatenate(fired, axis=1).nonzero()
        return list(zip(ticks.tolist(), ids[cols].tolist(), layers[cols].tolist()))

    def write_csv(self, path) -> None:
        write_csv_rows(path, ("tick", "t_seconds", "error_bin", "integral_bin",
                              "deriv_bin", "output_bin", "output_newton"),
                       zip(range(len(self)), [k * self.dt for k in range(len(self))],
                           self.error_bin, self.integral_bin, self.deriv_bin,
                           self.output_bin, self.output_newton))

    def write_raster_csv(self, path) -> None:
        write_csv_rows(path, ("tick", "neuron_id", "layer"), self.raster)


class NpidNetwork:
    """A built controller instance: three adder units plus the integral
    delay state.  Mutable state is the integral bin and the optional
    trace; everything else is fixed at build time."""

    def __init__(self, config: NpidConfig):
        self.config = config
        self.grids = config.build_grids()
        g, dt, lam = config.gains, config.dt, config.decay
        mode, quant = config.mode, config.quantized
        tm = self.grids.target_measurement

        self.error_unit = build_adder(
            [InputSpec(tm, +1, 1.0), InputSpec(tm, -1, 1.0)],
            self.grids.error, mode=mode, quantized=quant, name="error",
        )
        self.integral_unit = build_adder(
            [InputSpec(self.grids.integral, +1, lam),
             InputSpec(self.grids.error, +1, dt)],
            self.grids.integral, mode=mode, quantized=quant, name="integral",
        )
        self.control_unit = build_adder(
            [InputSpec(self.grids.error, +1, g.kp),
             InputSpec(self.grids.integral, +1, g.ki),
             InputSpec(self.grids.derivative, +1, g.kd)],
            self.grids.output, mode=mode, quantized=quant, name="control",
        )
        self.units = (self.error_unit, self.integral_unit, self.control_unit)

        # The input populations, in netlist and raster order.
        self._inputs = {"target": tm, "measurement": tm,
                        "derivative": self.grids.derivative}
        self.integral_bin = self.grids.integral.zero_index
        self._trace: SpikeTrace | None = None  # what step appends to
        self._recorded: SpikeTrace | None = None  # what fetch_trace returns
        # Id and layer of each raster column, built on the first raster
        # read.  Declared here: an attribute added later slows every step.
        self._raster_ids: tuple[np.ndarray, np.ndarray] | None = None

    # -- control loop --------------------------------------------------------

    def step(self, target: float, measurement: float, derivative: float) -> float:
        """Encode the inputs, run one tick through the three units and
        return the decoded thrust offset in Newtons.  The integral unit
        reads last tick's integral bin through its delay-1 edge."""
        tm, grids = self.grids.target_measurement, self.grids
        t_bin = encode(tm, target)
        m_bin = encode(tm, measurement)
        d_bin = encode(grids.derivative, derivative)
        e_bin = self.error_unit.winner_bin(t_bin, m_bin)
        i_bin = self.integral_unit.winner_bin(self.integral_bin, e_bin)
        u_bin = self.control_unit.winner_bin(e_bin, i_bin, d_bin)
        self.integral_bin = i_bin
        u = grids.output.values[u_bin]
        if self._trace is not None:
            tr = self._trace
            tr.target_bin.append(t_bin)
            tr.measurement_bin.append(m_bin)
            tr.error_bin.append(e_bin)
            tr.integral_bin.append(i_bin)
            tr.deriv_bin.append(d_bin)
            tr.output_bin.append(u_bin)
            tr.output_newton.append(u)
        return u

    def reset(self) -> None:
        """Zero the integral state and delay buffers and drop the trace,
        as in a fresh build; idempotent."""
        self.integral_bin = self.grids.integral.zero_index
        self._trace = self._recorded = None

    # -- accounting and introspection ----------------------------------------

    def neuron_count(self) -> tuple[int, int]:
        """(unit neurons, input neurons).  With every population at the
        same resolution N this is (6N + 3, 3N)."""
        unit = sum(u.neuron_count for u in self.units)
        inputs = 2 * self.grids.target_measurement.n + self.grids.derivative.n
        return unit, inputs

    def record_raster(self, on: bool, raster: bool = True) -> None:
        """Start a new trace or stop recording.  While on, every tick
        appends its bins, from which a raster trace derives its spikes; a
        stopped trace stays fetchable until the next reset."""
        if on:
            self._trace = self._recorded = SpikeTrace(
                dt=self.config.dt, integral_start=self.integral_bin,
                network=self if raster else None)
        else:
            self._trace = None

    def fetch_trace(self) -> SpikeTrace:
        if self._recorded is None:
            raise ValueError("no trace since build or reset; call record_raster first")
        return self._recorded

    def export_netlist(self) -> Netlist:
        """Serialize the controller as a flat neuron/synapse graph; the
        recurrent integral edge is the only delay-1 wiring."""
        wiring = [
            [("input", "target", 0), ("input", "measurement", 0)],
            [("unit", "integral", 1), ("unit", "error", 0)],
            [("unit", "error", 0), ("unit", "integral", 0),
             ("input", "derivative", 0)],
        ]
        return export_netlist(self.units, self._inputs, wiring)


def build_npid(config: NpidConfig) -> NpidNetwork:
    """Build a controller network from a validated config."""
    return NpidNetwork(config)
