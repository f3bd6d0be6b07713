"""Netlist export/import: the network as a flat neuron + synapse graph.

The netlist is the serializable form of one or more adder units plus
their input populations.  In memory it is a list of NeuronSpec and a list
of SynapseSpec, each synapse naming its endpoints by neuron id.

On disk it is one JSON object, written in columns with synapse endpoints
as positions in the neuron list (format version 2)::

    {"meta": {..., "version": 2},
     "neurons": {"id": [...], "layer": [...], "threshold": [...]},
     "synapses": {"src": [...], "dst": [...], "weight": [...], "delay": [...]}}

Float weights and thresholds round-trip exactly (JSON numbers are written
with repr); quantized ones stay JSON integers.  "version" is a key of the
file's meta only: save adds it and load checks and drops it.  Only
version 2 is read.

NetlistRuntime re-evaluates a netlist from the graph alone (levels from
zero-delay depth, unit names from meta["unit_outputs"], neuron ids only
as lookup keys), which gives an independent check that the exported
wiring reproduces the units' behavior bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .units import LAYER_INPUT, LAYER_REDUCE, NeuronSpec, SynapseSpec

__all__ = ["Netlist", "export_netlist", "NetlistRuntime"]

FORMAT_VERSION = 2


def _columns(d: dict, section: str, names) -> list[list]:
    """The named columns of d[section], checked to be equal-length lists."""
    table = d.get(section)
    if not isinstance(table, dict):
        raise ValueError(f"{section} must be an object of columns")
    cols = []
    for name in names:
        col = table.get(name)
        if not isinstance(col, list):
            raise ValueError(f"{section}.{name} must be a list")
        if cols and len(col) != len(cols[0]):
            raise ValueError(f"{section}.{name} has {len(col)} entries, "
                             f"{section}.{names[0]} has {len(cols[0])}")
        cols.append(col)
    return cols


def _check_index(col: list, name: str, n: int) -> None:
    """Every entry an int in [0, n): a negative one would wrap silently."""
    if col and (set(map(type, col)) != {int} or min(col) < 0 or max(col) >= n):
        bad = next(k for k in col if type(k) is not int or not 0 <= k < n)
        raise ValueError(f"synapses.{name} entry {bad!r} is not a neuron "
                         f"index in [0, {n})")


@dataclass
class Netlist:
    neurons: list[NeuronSpec]
    synapses: list[SynapseSpec]
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        ids = [n.id for n in self.neurons]
        id_set = set(ids)
        if len(ids) != len(id_set):
            raise ValueError("duplicate neuron ids in netlist")
        for s in self.synapses:
            if s.src not in id_set or s.dst not in id_set:
                raise ValueError(f"dangling synapse endpoint: {s.src} -> {s.dst}")
            if s.delay not in (0, 1):
                raise ValueError(f"synapse delay must be 0 or 1, got {s.delay}")

    def to_dict(self) -> dict:
        """The version-2 file layout (see the module docstring)."""
        index = {n.id: k for k, n in enumerate(self.neurons)}
        return {
            "meta": {**self.meta, "version": FORMAT_VERSION},
            "neurons": {
                "id": [n.id for n in self.neurons],
                "layer": [n.layer for n in self.neurons],
                "threshold": [n.threshold for n in self.neurons],
            },
            "synapses": {
                "src": [index[s.src] for s in self.synapses],
                "dst": [index[s.dst] for s in self.synapses],
                "weight": [s.weight for s in self.synapses],
                "delay": [s.delay for s in self.synapses],
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Netlist":
        """Read the version-2 layout.  The columns are checked here (equal
        lengths, unique ids, in-range integer endpoints, delays 0 or 1),
        so the result needs no validate(); each rejection is a ValueError
        naming the field."""
        meta = d.get("meta")
        version = meta.get("version") if isinstance(meta, dict) else None
        if version != FORMAT_VERSION:
            raise ValueError(f"meta.version must be {FORMAT_VERSION}, got {version!r}")
        ids, layer, threshold = _columns(d, "neurons", ("id", "layer", "threshold"))
        src, dst, weight, delay = _columns(d, "synapses",
                                           ("src", "dst", "weight", "delay"))
        if len(set(ids)) != len(ids):
            raise ValueError("neurons.id has duplicate ids")
        _check_index(src, "src", len(ids))
        _check_index(dst, "dst", len(ids))
        if not set(delay) <= {0, 1}:
            bad = next(x for x in delay if x not in (0, 1))
            raise ValueError(f"synapses.delay must be 0 or 1, got {bad!r}")
        id_at = ids.__getitem__
        return cls(
            neurons=list(map(NeuronSpec, ids, layer, threshold)),
            synapses=list(map(SynapseSpec, map(id_at, src), map(id_at, dst),
                              weight, delay)),
            meta={k: v for k, v in meta.items() if k != "version"},
        )

    def save(self, path) -> None:
        # One dumps call without indent: json.dump and indent both fall
        # back to the pure-Python encoder.
        text = json.dumps(self.to_dict(), separators=(",", ":"))
        with open(path, "w") as f:
            f.write(text)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "Netlist":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def export_netlist(units, inputs, wiring=None) -> Netlist:
    """Flatten adder units and input populations into a Netlist.

    inputs: dict name -> ValueGrid (or a list, auto-named input0..).
    wiring: per unit, one (kind, name, delay) triple per input port where
    kind is "input" (a named population) or "unit" (that unit's reduce
    layer).  When omitted, ports consume the input populations in file
    order, unit by unit.
    """
    if not isinstance(inputs, dict):
        inputs = {f"input{i}": g for i, g in enumerate(inputs)}
    units = list(units)

    if wiring is None:
        names = list(inputs)
        if len(names) != sum(len(u.inputs) for u in units):
            raise ValueError("default wiring needs one input population per port")
        wiring = []
        k = 0
        for u in units:
            wiring.append([("input", names[k + p], 0) for p in range(len(u.inputs))])
            k += len(u.inputs)

    unit_by_name = {u.name: u for u in units}
    neurons: list[NeuronSpec] = []
    synapses: list[SynapseSpec] = []

    for name, grid in inputs.items():
        for i in range(grid.n):
            neurons.append(NeuronSpec(f"{name}[{i}]", LAYER_INPUT, 0))
    for u in units:
        neurons.extend(u.neuron_specs())

    for u, ports in zip(units, wiring):
        id_fns = []
        delays = []
        for p, (kind, src_name, delay) in enumerate(ports):
            if kind == "input":
                grid = inputs[src_name]
                id_fns.append(lambda i, s=src_name: f"{s}[{i}]")
            elif kind == "unit":
                grid = unit_by_name[src_name].output
                id_fns.append(lambda i, s=src_name: f"{s}.reduce[{i}]")
            else:
                raise ValueError(f"unknown wiring source kind {kind!r}")
            if grid.n != u.inputs[p].grid.n:
                raise ValueError(
                    f"port {p} of unit {u.name!r} expects {u.inputs[p].grid.n} "
                    f"bins but source {src_name!r} has {grid.n}"
                )
            delays.append(delay)
        synapses.extend(u.synapse_specs(id_fns, delays))

    meta = {
        "scale": {u.name: u.scale for u in units},
        "grids": {name: g.to_dict() for name, g in inputs.items()},
        "mode": units[0].mode if units else "nearest",
        "quantized": any(u.quantized for u in units),
        "unit_outputs": {u.name: u.output.to_dict() for u in units},
    }
    nl = Netlist(neurons=neurons, synapses=synapses, meta=meta)
    nl.validate()
    return nl


class NetlistRuntime:
    """Evaluates a netlist directly from its graph.

    A non-input neuron's level is its depth in the zero-delay synapse
    graph; levels run in order, each neuron adding its active incoming
    weights in synapse file order (as the units do) and firing at its
    threshold.  Delay-1 synapses read last tick's firing.  Unit u's
    reduce neurons are the next meta["unit_outputs"][u]["n"] reduce-
    layer neurons in file order, and its winner is the one that fires.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        neurons, synapses = netlist.neurons, netlist.synapses
        n, m = len(neurons), len(synapses)
        index = {nrn.id: k for k, nrn in enumerate(neurons)}
        self._inputs = {nrn.id: k for k, nrn in enumerate(neurons)
                        if nrn.layer == LAYER_INPUT}
        layer = np.array([nrn.layer for nrn in neurons], dtype=str)
        threshold = np.fromiter((nrn.threshold for nrn in neurons), np.float64, n)
        src = np.fromiter((index[s.src] for s in synapses), np.int32, m)
        dst = np.fromiter((index[s.dst] for s in synapses), np.int32, m)
        weight = np.fromiter((s.weight for s in synapses), np.float64, m)
        delayed = np.fromiter((s.delay == 1 for s in synapses), bool, m)

        # Kahn's algorithm, one frontier at a time, on the zero-delay graph.
        src0, dst0 = src[~delayed], dst[~delayed]
        indegree = np.bincount(dst0, minlength=n)
        level = np.full(n, -1, dtype=np.int32)
        frontier, depth = indegree == 0, 0
        while frontier.any():
            level[frontier] = depth
            indegree -= np.bincount(dst0[frontier[src0]], minlength=n)
            frontier, depth = (indegree == 0) & (level < 0), depth + 1
        if (level < 0).any():
            raise ValueError("zero-delay synapses form a cycle through "
                             f"{neurons[int(np.argmax(level < 0))].id!r}")
        level[layer == LAYER_INPUT] = -1  # set by the stimuli, never evaluated

        # Row 0 of the firing buffer is this tick, row 1 last tick; a
        # delay-1 synapse reads its source through the offset n.
        self._fired = np.zeros((2, n), dtype=bool)
        src[delayed] += n
        into = level[dst]
        self._levels = []
        for depth in np.unique(level[level >= 0]):
            nodes = np.flatnonzero(level == depth).astype(np.int32)
            mine = into == depth  # a mask keeps the synapses in file order
            self._levels.append((nodes, threshold[nodes], src[mine],
                                 np.searchsorted(nodes, dst[mine]).astype(np.int32),
                                 weight[mine]))

        reduce = np.flatnonzero(layer == LAYER_REDUCE).astype(np.int32)
        outputs = netlist.meta.get("unit_outputs", {})
        sizes = [grid["n"] for grid in outputs.values()]
        if sum(sizes) != len(reduce):
            raise ValueError(f"meta unit_outputs has {sum(sizes)} output bins but the "
                             f"netlist has {len(reduce)} reduce neurons")
        self._units = list(zip(outputs, np.split(reduce, np.cumsum(sizes)[:-1])))

    def reset(self) -> None:
        self._fired[:] = False

    def step(self, stimuli: dict) -> dict:
        """One tick.  stimuli maps input population name -> hot bin index.
        Returns {unit name: winning reduce bin}.  Raises ValueError for a
        stimulus naming no input neuron, AssertionError if a reduce layer
        fails to pick a single winner."""
        hot = [self._inputs.get(f"{pop}[{b}]", -1) for pop, b in stimuli.items()]
        if -1 in hot:
            pop, b = list(stimuli.items())[hot.index(-1)]
            raise ValueError(f"stimulus {pop!r} bin {b!r} names no input neuron")
        fired = self._fired
        fired[1] = fired[0]
        fired[0] = False
        fired[0, hot] = True
        now, both = fired[0], fired.reshape(-1)
        for nodes, threshold, src, dst, weight in self._levels:
            on = np.flatnonzero(np.take(both, src))
            # bincount adds each neuron's active weights in file order.
            pot = np.bincount(dst[on], weights=weight[on], minlength=len(nodes))
            now[nodes] = pot >= threshold
        winners = {}
        for name, reduce in self._units:
            won = np.flatnonzero(now[reduce])
            if len(won) != 1:
                raise AssertionError(f"unit {name!r} reduce produced {len(won)} winners")
            winners[name] = int(won[0])
        return winners
