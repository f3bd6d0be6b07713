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

from dataclasses import dataclass, field

import numpy as np

from .grids import ValueGrid, encode, make_grid
from .netlist import Netlist, export_netlist
from .reference import PidGains
from .units import InputSpec, build_adder

__all__ = [
    "GridSpec",
    "NpidGrids",
    "NpidConfig",
    "default_config",
    "NpidNetwork",
    "SpikeTrace",
    "build_npid",
]


@dataclass(frozen=True)
class GridSpec:
    lo: float
    hi: float
    n: int
    distribution: str = "uniform"

    def build(self) -> ValueGrid:
        return make_grid(self.lo, self.hi, self.n, self.distribution)


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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 < self.decay <= 1:
            raise ValueError("decay must lie in (0, 1]")
        if self.mode not in ("floor", "nearest"):
            raise ValueError(f"unknown rounding mode {self.mode!r}")
        for name in ("target_grid", "error_grid", "derivative_grid", "output_grid"):
            spec = getattr(self, name)
            if spec.n < 2 or spec.lo >= spec.hi:
                raise ValueError(f"invalid {name}: {spec}")

    def resolved_integral_grid(self) -> GridSpec:
        """Integral grid, sized by default so a full-scale integral alone
        can just saturate the output: +/- output.hi * ti / kp."""
        if self.integral_grid is not None:
            return self.integral_grid
        bound = self.output_grid.hi * self.gains.ti / self.gains.kp
        return GridSpec(-bound, bound, self.output_grid.n,
                        self.output_grid.distribution)

    def build_grids(self) -> NpidGrids:
        self.validate()
        return NpidGrids(
            target_measurement=self.target_grid.build(),
            error=self.error_grid.build(),
            integral=self.resolved_integral_grid().build(),
            derivative=self.derivative_grid.build(),
            output=self.output_grid.build(),
        )


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
    """Per-tick bin record, optionally with the full spike raster."""

    dt: float
    error_bin: list[int] = field(default_factory=list)
    integral_bin: list[int] = field(default_factory=list)
    deriv_bin: list[int] = field(default_factory=list)
    output_bin: list[int] = field(default_factory=list)
    output_newton: list[float] = field(default_factory=list)
    raster: list[tuple[int, str, str]] = field(default_factory=list)  # (tick, id, layer)

    def __len__(self) -> int:
        return len(self.output_bin)

    def write_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("tick,t_seconds,error_bin,integral_bin,deriv_bin,"
                    "output_bin,output_newton\n")
            for k in range(len(self)):
                f.write(
                    f"{k},{k * self.dt!r},{self.error_bin[k]},"
                    f"{self.integral_bin[k]},{self.deriv_bin[k]},"
                    f"{self.output_bin[k]},{self.output_newton[k]!r}\n"
                )

    def write_raster_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("tick,neuron_id,layer\n")
            for tick, nid, layer in self.raster:
                f.write(f"{tick},{nid},{layer}\n")


class NpidNetwork:
    """A built controller instance: three adder units plus the integral
    delay state.  Mutable state is the integral bin and the optional
    trace; everything else is fixed at build time."""

    def __init__(self, config: NpidConfig):
        config.validate()
        self.config = config
        self.grids = config.build_grids()
        g, dt, lam = config.gains, config.dt, config.decay
        mode, quant = config.mode, config.quantized
        tm = self.grids.target_measurement

        if self.grids.error.zero_index is None:
            raise ValueError("error grid must contain 0")
        if self.grids.integral.zero_index is None:
            raise ValueError("integral grid must contain 0")
        if self.grids.output.zero_index is None:
            raise ValueError("output grid must contain 0")

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

        self.integral_bin = self.grids.integral.zero_index
        self._tick = 0
        self._trace: SpikeTrace | None = None  # what step appends to
        self._recorded: SpikeTrace | None = None  # what fetch_trace returns
        self._raster_on = False
        # Per unit, (id, layer) of each neuron in eval_bins' pos, neg,
        # reduce order; built on the first raster tick.  Declared here:
        # an attribute added after __init__ slows every later step's
        # attribute loads.
        self._raster_neurons: list[list[tuple[str, str]]] | None = None

    # -- control loop --------------------------------------------------------

    def step(self, target: float, measurement: float, derivative: float) -> float:
        """Encode the inputs, run one tick through the three units and
        return the decoded thrust offset in Newtons.  The integral unit
        reads last tick's integral bin through its delay-1 edge."""
        tm, grids = self.grids.target_measurement, self.grids
        t_bin = encode(tm, target)
        m_bin = encode(tm, measurement)
        d_bin = encode(grids.derivative, derivative)
        if self._raster_on:
            e_bin, i_bin, u_bin = self._step_with_raster(t_bin, m_bin, d_bin)
        else:
            e_bin = self.error_unit.winner_bin(t_bin, m_bin)
            i_bin = self.integral_unit.winner_bin(self.integral_bin, e_bin)
            u_bin = self.control_unit.winner_bin(e_bin, i_bin, d_bin)
        self.integral_bin = i_bin
        u = grids.output.values[u_bin]
        if self._trace is not None:
            tr = self._trace
            tr.error_bin.append(e_bin)
            tr.integral_bin.append(i_bin)
            tr.deriv_bin.append(d_bin)
            tr.output_bin.append(u_bin)
            tr.output_newton.append(u)
        self._tick += 1
        return u

    def _step_with_raster(self, t_bin: int, m_bin: int, d_bin: int):
        tick = self._tick
        rows = self._trace.raster if self._trace is not None else []
        rows.append((tick, f"target[{t_bin}]", "input"))
        rows.append((tick, f"measurement[{m_bin}]", "input"))
        rows.append((tick, f"derivative[{d_bin}]", "input"))
        if self._raster_neurons is None:
            self._raster_neurons = [[(n.id, n.layer) for n in unit.neuron_specs()]
                                    for unit in self.units]
        err_ids, int_ids, ctl_ids = self._raster_neurons

        def run(unit, neurons, bins):
            winners, pos, neg, red = unit.eval_bins([bins])
            fired = np.flatnonzero(np.concatenate([pos[0], neg[0], red[0]]))
            rows.extend((tick, *neurons[k]) for k in fired.tolist())
            return int(winners[0])

        e_bin = run(self.error_unit, err_ids, (t_bin, m_bin))
        i_bin = run(self.integral_unit, int_ids, (self.integral_bin, e_bin))
        u_bin = run(self.control_unit, ctl_ids, (e_bin, i_bin, d_bin))
        return e_bin, i_bin, u_bin

    def reset(self) -> None:
        """Zero the integral state and delay buffers and drop the trace,
        as in a fresh build; idempotent."""
        self.integral_bin = self.grids.integral.zero_index
        self._tick = 0
        self._trace = self._recorded = None
        self._raster_on = False

    # -- accounting and introspection ----------------------------------------

    def neuron_count(self) -> tuple[int, int]:
        """(unit neurons, input neurons).  With every population at the
        same resolution N this is (6N + 3, 3N)."""
        unit = sum(u.neuron_count for u in self.units)
        inputs = 2 * self.grids.target_measurement.n + self.grids.derivative.n
        return unit, inputs

    def record_raster(self, on: bool, raster: bool = True) -> None:
        """Start a new trace or stop recording.  While on, every tick
        appends its bins (and, when raster is set, all firing neuron
        ids); a stopped trace stays fetchable until the next reset."""
        if on:
            self._trace = self._recorded = SpikeTrace(dt=self.config.dt)
            self._raster_on = raster
            self._tick = 0
        else:
            self._trace = None
            self._raster_on = False

    def fetch_trace(self) -> SpikeTrace:
        if self._recorded is None:
            raise ValueError("no trace since build or reset; call record_raster first")
        return self._recorded

    def export_netlist(self) -> Netlist:
        """Serialize the controller as a flat neuron/synapse graph; the
        recurrent integral edge is the only delay-1 wiring."""
        inputs = {
            "target": self.grids.target_measurement,
            "measurement": self.grids.target_measurement,
            "derivative": self.grids.derivative,
        }
        wiring = [
            [("input", "target", 0), ("input", "measurement", 0)],
            [("unit", "integral", 1), ("unit", "error", 0)],
            [("unit", "error", 0), ("unit", "integral", 0),
             ("input", "derivative", 0)],
        ]
        return export_netlist(self.units, inputs, wiring)


def build_npid(config: NpidConfig) -> NpidNetwork:
    """Build a controller network from a validated config."""
    return NpidNetwork(config)
