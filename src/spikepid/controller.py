"""The full spiking PID: error, decayed integral and gain-fused control
units composed over position-coded populations.

Dataflow per control tick (all signals one-hot):

    target, measurement -> subtractor -> error bin
    error bin + last integral bin (delay-1 self loop)
        -> integral unit (lam * prev + error * dt) -> integral bin
    error bin + integral bin + derivative input
        -> control unit -> output bin -> decoded thrust offset

The graph is stated once, in port_table: each population's grid field
and, per unit, its input ports in sum order (source population or unit,
delay, sign, gain).  The units are built from it; a quantized config's
weight range is checked on it at construction; the netlist wiring, the
raster and neuron_count read it.  NpidNetwork.step is its hand-written
hot path, which every raster read checks against it.

Gains are fused into the control unit's synaptic weights (kp, kp/ti,
kp*td times the source bin values); the derivative is supplied as an
encoded input rather than computed from spikes.  The integral unit's
recurrent edge carries last tick's integral bin with its weights scaled
by the decay factor, and the integral grid itself bounds wind-up: the
saturating winner-takes-all cannot leave the grid.

With every population at resolution N the three units hold 6N + 3
neurons, plus 3N input neurons (target, measurement, derivative).

A tick reads the error and integral units' outputs from maps that hold
every input pair, built by AdderUnit.eval_all_pairs (the literal
propagation, once per aggregate firing class) at O(N^2) time and
memory, as PidOracle builds its own.  The control unit's N^3 input
tuples are too many to store, so step computes its bin inline from the
unit's tick_tables: its three weight rows summed left to right, then
one bisect_right over its step points, the adds and search of
AdderUnit.winner_bin, so the bin is the same.  Every raster read checks
each recorded control bin against the unit's eval_bins.

A network is programmed once and then ticked, so everything its config
fixes (grids, port table, units, maps) is built once per config and
shared, read-only, by every network built from it in the process; each
network keeps only its integral bin and its trace.  The tables of the
16 configs built most recently stay cached, about 0.35 MB each at
N=151 and 5.9 MB at N=1001.  The cache is keyed on repr(config), not
on config equality: configs equal but for the sign of a zero build
different tables.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .grids import ValueGrid, bin_rows, check_grid, encode, make_grid, nan_input
from .netlist import Netlist, export_netlist, neuron_columns
from .reference import PidGains, check_pipeline
from .units import WEIGHT_MAX, build_adder

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
        try:
            check_grid(self.lo, self.hi, self.n, self.distribution)
        except ValueError as e:
            raise ValueError(f"{name}.{e}") from None


# The NpidConfig fields of the five grids, in NpidGrids' order.
GRID_FIELDS = ("target_grid", "error_grid", "integral_grid", "derivative_grid",
               "output_grid")


@dataclass(frozen=True)
class NpidGrids:
    """The five built value grids of one controller instance, in the
    order of GRID_FIELDS."""

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

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Raise ValueError, naming the field, for a value no build can use.
        Construction runs it, so every config in hand has passed it."""
        check_pipeline(self.dt, self.decay, self.mode, self.quantized)
        for name in GRID_FIELDS:
            spec = getattr(self, name)
            if spec is not None:  # a None integral grid is sized on build
                spec.validate(name)
        if self.quantized:
            self._check_weight_range()

    def _check_weight_range(self) -> None:
        """Raise ValueError, naming the unit, the port and the fields to
        change, where a port's largest weight, |gain| x the largest |value|
        of its source grid, exceeds WEIGHT_MAX: no quantization scale >= 1
        can represent it, so the unit could not build."""
        field_of, ports = port_table(self)
        specs = self.grid_specs()
        for unit, unit_ports in ports.items():
            for src, _, _, gain, reads in unit_ports:
                spec = specs[field_of[src]]
                w = abs(gain) * max(abs(spec.lo), abs(spec.hi))
                if not w <= WEIGHT_MAX:
                    raise ValueError(f"quantized: {unit} unit port {src!r} ({reads} * "
                                     f"{field_of[src]}) reaches weight {w!r} > {WEIGHT_MAX}")

    def resolved_integral_grid(self) -> GridSpec:
        """Integral grid, sized by default so a full-scale integral alone
        can just saturate the output: +/- output.hi * ti / kp."""
        if self.integral_grid is not None:
            return self.integral_grid
        bound = self.output_grid.hi * self.gains.ti / self.gains.kp
        return GridSpec(-bound, bound, self.output_grid.n,
                        self.output_grid.distribution)

    def grid_specs(self) -> dict[str, GridSpec]:
        """The spec of each of GRID_FIELDS, the integral grid resolved."""
        return {name: getattr(self, name) for name in GRID_FIELDS} | {
            "integral_grid": self.resolved_integral_grid()}

    def build_grids(self) -> NpidGrids:
        """Build the five grids.  The error, integral and output grids must
        hold the exact value 0: every adder unit splits its aggregate layer
        there."""
        grids = NpidGrids(*(spec.build() for spec in self.grid_specs().values()))
        for name, grid in (("error_grid", grids.error),
                           ("output_grid", grids.output),
                           ("integral_grid", grids.integral)):
            if grid.zero_index is None:
                raise ValueError(f"{name} must contain the value 0, got "
                                 f"[{grid.lo!r}, {grid.hi!r}] with n={grid.n}")
        return grids


def default_config(n: int = 151, distribution: str = "uniform",
                   **fields) -> NpidConfig:
    """NpidConfig's stock values with every population at resolution n;
    any other NpidConfig field passes through.

    distribution applies to the signed grids (error, integral, output);
    the target/measurement grid is asymmetric and the derivative input is
    already narrow, so both stay uniform.
    """
    # The class attributes of a dataclass are its fields' defaults.
    return NpidConfig(**{
        "target_grid": replace(NpidConfig.target_grid, n=n),
        "error_grid": replace(NpidConfig.error_grid, n=n, distribution=distribution),
        "derivative_grid": replace(NpidConfig.derivative_grid, n=n),
        "output_grid": replace(NpidConfig.output_grid, n=n, distribution=distribution),
        **fields})


@dataclass
class SpikeTrace:
    """Per-tick bins of one recording.  Its thrust column reads the output
    bins' output_values; with a network (record_raster's raster flag) its
    spike raster derives from the bins too, else it reads []."""

    dt: float
    output_values: tuple[float, ...] = field(default=(), repr=False)
    target_bin: list[int] = field(default_factory=list)
    measurement_bin: list[int] = field(default_factory=list)
    error_bin: list[int] = field(default_factory=list)
    integral_bin: list[int] = field(default_factory=list)
    deriv_bin: list[int] = field(default_factory=list)
    output_bin: list[int] = field(default_factory=list)
    integral_start: int | None = None  # the delay-1 integral input at tick 0
    network: NpidNetwork | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.output_bin)

    @property
    def output_newton(self) -> list[float]:
        """The decoded thrust offset [N] of each tick."""
        return list(map(self.output_values.__getitem__, self.output_bin))

    @property
    def raster(self) -> list[tuple[int, str, str]]:
        """(tick, neuron id, layer) of every spike, in netlist neuron order
        within a tick.  Each read re-runs every unit's eval_bins once over all
        ticks and raises AssertionError where a winner is not the recorded bin."""
        net = self.network
        if net is None or not self.output_bin:
            return []
        # Each source's bin per tick, and last tick's for a delay-1 port.
        now = {"target": self.target_bin, "measurement": self.measurement_bin,
               "derivative": self.deriv_bin, "error": self.error_bin,
               "integral": self.integral_bin, "control": self.output_bin}
        past = {"integral": [self.integral_start] + self.integral_bin[:-1]}
        fired = [np.equal.outer(now[name], np.arange(grid.n))  # the input spikes
                 for name, grid in net._inputs.items()]
        winners = []
        for unit in net.units:
            ports = net._ports[unit.name]
            w, *masks = unit.eval_bins(  # pos, neg, reduce masks
                np.array([(past if delay else now)[src] for src, delay, *_ in ports]).T)
            winners.append(w)
            fired += masks
        recorded = np.array([now[unit.name] for unit in net.units])
        wrong = np.array(winners) != recorded
        if wrong.any():
            k, u = np.argwhere(wrong.T)[0]  # the first tick, then its first unit
            raise AssertionError(
                f"raster of unit {net.units[u].name!r} at tick {k}: winner "
                f"{winners[u][k]} is not the recorded bin {recorded[u, k]}")
        if net._raster_ids is None:  # built on the first read, once per network
            neurons = neuron_columns(net.units, net._inputs)
            net._raster_ids = (np.array(neurons.id, dtype=object),
                               np.array(neurons.layer, dtype=object))
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


def port_table(config: NpidConfig) -> tuple[dict, dict]:
    """The graph of a config: the field (of GRID_FIELDS) of each
    population's grid, the input populations in netlist and raster order
    and then the units in build order, and per unit its input ports in
    sum order, (source population or unit, delay, sign, gain, the config
    values the gain reads)."""
    g = config.gains
    grids = {"target": "target_grid", "measurement": "target_grid",
             "derivative": "derivative_grid", "error": "error_grid",
             "integral": "integral_grid", "control": "output_grid"}
    ports = {
        "error": (("target", 0, 1, 1.0, "1"), ("measurement", 0, -1, 1.0, "1")),
        "integral": (("integral", 1, 1, config.decay, "decay"),
                     ("error", 0, 1, config.dt, "dt")),
        "control": (("error", 0, 1, g.kp, "kp"), ("integral", 0, 1, g.ki, "kp/ti"),
                    ("derivative", 0, 1, g.kd, "kp*td")),
    }
    return grids, ports


# Distinct configs whose tables stay built: the golden set's 12 and room
# to spare.
_CACHED_CONFIGS = 16


@lru_cache(maxsize=_CACHED_CONFIGS)
def _tables(key: str, config: NpidConfig) -> tuple:
    """What config fixes of a network: its grids, input populations, port
    table, units, error and integral maps, and the control unit's three
    weight rows and step points (its tick_tables, flat), each read-only.

    key is repr(config), which round-trips every float.  Configs that
    compare equal can still build different tables: GridSpec(-0.0, 4, n)
    == GridSpec(0.0, 4, n), yet the grids' lo differ in sign, and so do
    the zero weights of PidGains(td=-0.0) and PidGains(td=0.0)."""
    grids = config.build_grids()
    field_of, ports = port_table(config)
    built = dict(zip(GRID_FIELDS, vars(grids).values()))
    grid_of = {name: built[f] for name, f in field_of.items()}
    units = tuple(
        build_adder([(grid_of[src], sign, gain) for src, _, sign, gain, _ in unit_ports],
                    grid_of[name], mode=config.mode, quantized=config.quantized, name=name)
        for name, unit_ports in ports.items())
    inputs = {name: grid for name, grid in grid_of.items() if name not in ports}
    err_map = tuple(bin_rows(units[0].eval_all_pairs(), grids.error))
    int_map = tuple(bin_rows(units[1].eval_all_pairs(), grids.integral))
    weights, points = units[2].tick_tables
    return (grids, MappingProxyType(inputs), MappingProxyType(ports), units,
            err_map, int_map, (*weights, points))


class NpidNetwork:
    """A built controller instance: three adder units plus the integral
    delay state.  Mutable state is the integral bin and the optional
    trace, held by each network.  The rest (grids, _inputs, _ports,
    units, the two maps and the control rows) is shared, read-only, with
    every network of a config whose repr is the same, while the config
    is among the 16 last built: about 0.35 MB per config at N=151, 5.9 MB
    at N=1001."""

    def __init__(self, config: NpidConfig):
        self.config = config
        (self.grids, self._inputs, self._ports, self.units,
         self._err_map, self._int_map, self._ctl) = _tables(repr(config), config)
        self.error_unit, self.integral_unit, self.control_unit = self.units

        self.integral_bin = self.grids.integral.zero_index
        self._trace: SpikeTrace | None = None  # what step appends to
        self._recorded: SpikeTrace | None = None  # what fetch_trace returns
        # Id and layer of each raster column, built on the first raster
        # read.  Declared here: an attribute added later slows every step.
        self._raster_ids: tuple[np.ndarray, np.ndarray] | None = None

    # -- control loop --------------------------------------------------------

    def step(self, target: float, measurement: float, derivative: float) -> float:
        """Encode the inputs, run one tick through the three units and
        return the decoded thrust offset in Newtons.  The error and
        integral bins are read from the units' stored maps; the control
        bin is winner_bin's sum and search, inlined over the rows and
        step points read at build.  The integral unit reads
        last tick's integral bin through its delay-1 edge.  A NaN input
        raises ValueError naming it, before the integral bin or the
        trace changes; an infinite one clamps to an end bin."""
        tm, grids = self.grids.target_measurement, self.grids
        try:
            t_bin = encode(tm, target)
            m_bin = encode(tm, measurement)
            d_bin = encode(grids.derivative, derivative)
        except ValueError:
            raise nan_input(target=target, measurement=measurement,
                            derivative=derivative) from None
        e_bin = self._err_map[t_bin][m_bin]
        i_bin = self._int_map[self.integral_bin][e_bin]
        w0, w1, w2, points = self._ctl
        u_bin = bisect_right(points, w0[e_bin] + w1[i_bin] + w2[d_bin])
        self.integral_bin = i_bin
        if self._trace is not None:
            tr = self._trace
            tr.target_bin.append(t_bin)
            tr.measurement_bin.append(m_bin)
            tr.error_bin.append(e_bin)
            tr.integral_bin.append(i_bin)
            tr.deriv_bin.append(d_bin)
            tr.output_bin.append(u_bin)
        return grids.output.values[u_bin]

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
        return unit, sum(g.n for g in self._inputs.values())

    @property
    def integral_parking_set(self) -> tuple[int, ...]:
        """The integral bins i that the integral unit maps to themselves at
        the zero error bin: once there, with no error left to drain it,
        the integral stays, so the loop can settle on any of them."""
        z = self.grids.error.zero_index
        return tuple(i for i, row in enumerate(self._int_map) if row[z] == i)

    def record_raster(self, on: bool, raster: bool = True) -> None:
        """Start a new trace or stop recording.  While on, every tick
        appends its bins, from which a raster trace derives its spikes; a
        stopped trace stays fetchable until the next reset."""
        if on:
            self._trace = self._recorded = SpikeTrace(
                self.config.dt, self.grids.output.values, integral_start=self.integral_bin,
                network=self if raster else None)
        else:
            self._trace = None

    def fetch_trace(self) -> SpikeTrace:
        if self._recorded is None:
            raise ValueError("no trace since build or reset; call record_raster first")
        return self._recorded

    def export_netlist(self) -> Netlist:
        """Serialize the controller as a flat neuron/synapse graph, wired by
        (source, delay) pairs; the integral edge is the only delay-1 one."""
        return export_netlist(self.units, self._inputs, [
            [(src, delay) for src, delay, *_ in ports] for ports in self._ports.values()])


def build_npid(config: NpidConfig) -> NpidNetwork:
    """Build a controller network from a validated config: fresh
    integral state and trace over the config's shared tables."""
    return NpidNetwork(config)
