"""Netlist export/import: the network as a flat neuron + synapse graph.

The netlist is the serializable form of one or more adder units plus
their input populations.  In memory and on disk it is the same typed
numpy columns: neurons as id and layer (unicode) and threshold, synapses
as src and dst (int32 positions in the neuron columns), weight and delay
(int8, 0 or 1).  Weights and thresholds are float64 in a float netlist,
its +/-2 reduce weights included, and integers in a quantized one (int16
weights, which criterion 4 bounds to [-256, 254]).  len() of either
table is its row count, iterating it yields one row (a Neuron or Synapse
named tuple) of Python scalars per entry, and == compares each column's
values and dtype kind.

On disk it is one uncompressed .npz (format version 3) with one array
per column, named "neurons.id", ..., "synapses.delay", and "meta": the
meta dict plus "version" as a JSON string in a 0-d unicode array.  save
writes exactly the path it is given; the zip entries carry zip's fixed
1980 timestamp, so equal netlists give equal bytes.  load reads with
allow_pickle=False and accepts version 3 only.  Netlist.validate is the
one column check; export and load each run it once.

NetlistRuntime re-evaluates a netlist from the graph alone (levels from
zero-delay depth, input and reduce neurons by their place in the layer),
which gives an independent check that the exported wiring reproduces the
units' behavior bit-exactly.  Its docstring gives the two kernels that
replay a level: one sum per broadcast level, or synapse by synapse.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import accumulate
from dataclasses import dataclass, field

import numpy as np

from .units import LAYER_INPUT, LAYER_REDUCE

__all__ = ["Netlist", "export_netlist", "NetlistRuntime"]

FORMAT_VERSION = 3


class _Columns:
    """Equal-length typed column arrays (a list given for one becomes an
    array), stored in the file as "<section>.<name>".  len() counts the
    rows; iterating yields each row as a named tuple of Python scalars;
    == compares values and dtype kinds."""

    def __post_init__(self):
        for name in self.Row._fields:
            setattr(self, name, np.asarray(getattr(self, name)))

    def __len__(self) -> int:
        return len(next(iter(vars(self).values())))

    def __iter__(self):
        return map(self.Row, *(col.tolist() for col in vars(self).values()))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            a.dtype.kind == b.dtype.kind and np.array_equal(a, b)
            for a, b in zip(vars(self).values(), vars(other).values()))


@dataclass(eq=False)
class Neurons(_Columns):
    id: np.ndarray  # unicode
    layer: np.ndarray  # unicode
    threshold: np.ndarray  # integers in quantized mode
    Row = namedtuple("Neuron", "id layer threshold")
    section, kinds = "neurons", ("U", "U", "iuf")  # dtype kinds


@dataclass(eq=False)
class Synapses(_Columns):
    src: np.ndarray  # neuron indices
    dst: np.ndarray
    weight: np.ndarray  # even integers in quantized mode
    delay: np.ndarray  # 0 or 1
    Row = namedtuple("Synapse", "src dst weight delay")
    section, kinds = "synapses", ("iu", "iu", "iuf", "iu")


@dataclass
class Netlist:
    neurons: Neurons
    synapses: Synapses
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Check the columns: one-dimensional arrays of the right kind and
        of equal length within each table, finite weights and thresholds,
        integer weights even and in [-256, 254] (criterion 4), unique ids,
        endpoints in range, delays 0 or 1.  Each rejection is a ValueError
        naming the field (and the first bad row of a weight or
        threshold)."""
        for table in (self.neurons, self.synapses):
            for (name, col), kinds in zip(vars(table).items(), table.kinds):
                if col.ndim != 1 or (col.size and col.dtype.kind not in kinds):
                    raise ValueError(f"{table.section}.{name} must be a 1-d array of "
                                     f"kind {kinds!r}, got {col.dtype} of shape {col.shape}")
            (first, rows), *rest = ((name, len(col)) for name, col in vars(table).items())
            for name, k in rest:
                if k != rows:
                    raise ValueError(f"{table.section}.{name} has {k} entries, "
                                     f"{table.section}.{first} has {rows}")
        for table, name in ((self.neurons, "threshold"), (self.synapses, "weight")):
            col = getattr(table, name)
            if col.dtype.kind == "f" and not np.isfinite(col).all():
                k = int(np.argmin(np.isfinite(col)))
                raise ValueError(f"{table.section}.{name} row {k} is {col[k]}, "
                                 "not a finite number")
        weight = self.synapses.weight
        if weight.dtype.kind in "iu":
            bad = (weight < -256) | (weight > 254) | ((weight & 1) != 0)
            if bad.any():
                k = int(np.argmax(bad))
                raise ValueError(f"synapses.weight row {k} is {weight[k]}, not an even "
                                 "integer in [-256, 254]")
        n = len(self.neurons)
        if len(np.unique(self.neurons.id)) != n:
            raise ValueError("neurons.id has duplicate ids")
        for name in ("src", "dst"):
            col = getattr(self.synapses, name)
            bad = col[(col < 0) | (col >= n)]
            if bad.size:
                raise ValueError(f"synapses.{name} entry {bad[0]} is not a neuron "
                                 f"index in [0, {n})")
        delay = self.synapses.delay
        bad = delay[(delay != 0) & (delay != 1)]
        if bad.size:
            raise ValueError(f"synapses.delay must be 0 or 1, got {bad[0]}")

    def save(self, path) -> None:
        """Write the version-3 file (see the module docstring) to exactly
        path, through a file handle: np.savez would add ".npz" to a name."""
        meta = json.dumps({**self.meta, "version": FORMAT_VERSION}, separators=(",", ":"))
        with open(path, "wb") as f:
            np.savez(f, meta=np.array(meta), **{
                f"{table.section}.{name}": col for table in (self.neurons, self.synapses)
                for name, col in vars(table).items()})

    @classmethod
    def load(cls, path) -> "Netlist":
        """Read and validate a version-3 file; each rejection is a
        ValueError naming the field."""
        with open(path, "rb") as f:
            if f.read(4) != b"PK\x03\x04":  # not a zip: a version-2 JSON file, say
                raise ValueError(f"meta.version must be {FORMAT_VERSION}, "
                                 "but the file is not an .npz")
            f.seek(0)
            with np.load(f, allow_pickle=False) as z:
                arrays = {}
                for key in z.files:
                    try:
                        arrays[key] = z[key]
                    except ValueError as err:  # an object (pickled) array
                        raise ValueError(f"{key}: {err}") from None
        try:
            meta = json.loads(arrays.pop("meta").item())
        except (KeyError, TypeError, ValueError):  # missing, or not a JSON string
            meta = None
        version = meta.get("version") if isinstance(meta, dict) else None
        if version != FORMAT_VERSION:
            raise ValueError(f"meta.version must be {FORMAT_VERSION}, got {version!r}")
        try:
            nl = cls(*(table(*(arrays[f"{table.section}.{name}"]
                               for name in table.Row._fields))
                       for table in (Neurons, Synapses)),
                     meta={k: v for k, v in meta.items() if k != "version"})
        except KeyError as err:
            raise ValueError(f"{err.args[0]} is missing") from None
        nl.validate()
        return nl


def neuron_columns(units, inputs: dict) -> Neurons:
    """The neurons of the input populations (threshold 0), then of each
    unit, in file order."""
    ids = np.array([f"{name}[{i}]" for name, grid in inputs.items()
                    for i in range(grid.n)], dtype=str)
    given = ids, np.full(len(ids), LAYER_INPUT), np.zeros(len(ids), np.int64)
    return Neurons(*map(np.concatenate, zip(given, *(u.neuron_columns() for u in units))))


def export_netlist(units, inputs, wiring) -> Netlist:
    """Flatten adder units and input populations into a Netlist.

    inputs: dict name -> ValueGrid.
    wiring: per unit, one (kind, name, delay) triple per input port where
    kind is "input" (a named population) or "unit" (that unit's reduce
    layer).
    """
    units = list(units)
    # Index of the first neuron of each input population and each unit.
    first = dict(zip([("input", name) for name in inputs]
                     + [("unit", u.name) for u in units],
                     accumulate([g.n for g in inputs.values()]
                                + [u.neuron_count for u in units], initial=0)))
    unit_by_name = {u.name: u for u in units}

    # Empty columns of the narrowest types, so a netlist with no units is typed too.
    parts = [tuple(np.empty(0, t) for t in (np.int32, np.int32, np.int16, np.int8))]
    for u, ports in zip(units, wiring):
        sources, delays = [], []
        for p, (kind, src_name, delay) in enumerate(ports):
            if kind == "input":
                grid, start = inputs[src_name], first["input", src_name]
            elif kind == "unit":  # the source unit's reduce layer
                v = unit_by_name[src_name]
                grid, start = v.output, first["unit", src_name] + v.pos_count + v.neg_count
            else:
                raise ValueError(f"unknown wiring source kind {kind!r}")
            if grid.n != u.inputs[p].grid.n:
                raise ValueError(
                    f"port {p} of unit {u.name!r} expects {u.inputs[p].grid.n} "
                    f"bins but source {src_name!r} has {grid.n}"
                )
            sources.append(np.arange(start, start + grid.n))
            delays.append(delay)
        parts.append(u.synapse_columns(first["unit", u.name], sources, delays))

    meta = {
        "scale": {u.name: u.scale for u in units},
        "grids": {name: g.to_dict() for name, g in inputs.items()},
        "mode": units[0].mode if units else "nearest",
        "quantized": any(u.quantized for u in units),
        "unit_outputs": {u.name: u.output.to_dict() for u in units},
    }
    nl = Netlist(neurons=neuron_columns(units, inputs),
                 synapses=Synapses(*map(np.concatenate, zip(*parts))), meta=meta)
    nl.validate()
    return nl


def _run(index):
    """A strictly ascending index array as a slice when it is one
    unbroken run (numpy reads and writes a slice faster), else the array
    itself."""
    if len(index) and index[-1] - index[0] == len(index) - 1:
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _broadcast(row, col, rows: int, neurons: int, weight):
    """The shared row order, one weight per row and each neuron's sign
    (+1.0 or -1.0) of a broadcast level (see NetlistRuntime), else None.
    row[k], col[k] and weight[k] are the row, the neuron and the weight
    of the level's k-th synapse in file order.  Weights compare with ==,
    so only a zero's sign may differ from the row's weight times the sign."""
    if len(row) != neurons * rows or (np.bincount(col, minlength=neurons) != rows).any():
        return None
    by = np.argsort(col.astype(np.min_scalar_type(neurons)), kind="stable")
    order, w = row[by].reshape(neurons, rows), weight[by].reshape(neurons, rows)
    if (order != order[0]).any():
        return None
    plus, minus = (w == w[0]).all(axis=1), (w == -w[0]).all(axis=1)
    if not (plus | minus).all():
        return None
    return order[0], w[0].copy(), np.where(plus, 1.0, -1.0)  # no view of w kept


def _owned(meta: dict, key: str, layers, layer: str) -> dict:
    """{name: neuron indices} for the grids of meta[key], each owning the
    next n neurons of the layer in file order.  Raises ValueError naming
    meta.key, or meta.key.<name>, unless meta[key] is an object of grid
    objects, each with an integer n >= 1, whose sizes add up to the
    layer's neurons."""
    grids = meta.get(key, {})
    if not isinstance(grids, dict):
        raise ValueError(f"meta.{key} must be an object, got {grids!r}")
    sizes = [grid.get("n") if isinstance(grid, dict) else None for grid in grids.values()]
    for name, size in zip(grids, sizes):
        if type(size) is not int or size < 1:
            raise ValueError(f"meta.{key}.{name} must be an object whose n "
                             f"is an integer >= 1, got {grids[name]!r}")
    mine = np.flatnonzero(layers == layer)
    if sum(sizes) != len(mine):
        raise ValueError(f"meta.{key} has {sum(sizes)} bins but the netlist has "
                         f"{len(mine)} {layer} neurons")
    return dict(zip(grids, np.split(mine, np.cumsum(sizes, dtype=np.intp)[:-1])))


class NetlistRuntime:
    """Evaluates a netlist directly from its graph.

    A non-input neuron's level is its depth in the zero-delay synapse
    graph; levels run in order, each neuron adding its active incoming
    weights in synapse file order (as the units do) and firing at its
    threshold.  Delay-1 synapses read last tick's firing.  Neurons are
    found by position: population p of meta["grids"] owns the next
    meta["grids"][p]["n"] input-layer neurons in file order, one per bin,
    and unit u of meta["unit_outputs"] the next n reduce-layer neurons,
    of which its winner is the one that fires.

    The graph picks one of two kernels for each level; its rows are the
    sources that feed it (a delay-1 source is its own row).  A broadcast
    level (every aggregate level export writes) has neurons x rows
    synapses: each neuron takes every row once, all in one file order,
    with weights equal to one weight per row times the neuron's sign.  A
    tick adds the fired rows' weights in that order from 0.0 into one sum
    s, in a Python loop (numpy sums 8 or more terms pairwise), and fires
    each neuron at sign * s >= threshold: negation commutes with
    rounding.  Every other level is its synapses in file order, and a
    tick adds the fired ones per neuron with np.bincount, which adds in
    array order from 0.0.  Either way each neuron's sum is the file-order
    sum of its fired in-edges, bit for bit up to the sign of a zero sum,
    which no threshold compare sees.

    The netlist's columns are taken as they are (validated on export or
    load); only the endpoint and delay arrays are bounds-checked here.
    Construction raises ValueError, naming the neuron, for a zero-delay
    cycle and for a source that feeds one neuron twice with the same
    delay, and, naming the key, unless meta["grids"] and
    meta["unit_outputs"] are objects of grid objects whose sizes add up
    to the input and the reduce neurons.
    """

    def __init__(self, netlist: Netlist):
        neurons, synapses = netlist.neurons, netlist.synapses
        n, layer = len(neurons), neurons.layer
        for name, hi in (("src", n), ("dst", n), ("delay", 2)):
            col = getattr(synapses, name)
            if col.size and not 0 <= col.min() <= col.max() < hi:
                raise ValueError(f"synapses.{name} has entries outside [0, {hi})")
        src = synapses.src.astype(np.int32)  # a copy: delay-1 sources move by n below
        dst, delayed = synapses.dst, synapses.delay == 1
        threshold = np.asarray(neurons.threshold, dtype=np.float64)
        # The stimulus table: population -> the neuron of each of its bins.
        self._inputs = {pop: bins.tolist() for pop, bins in
                        _owned(netlist.meta, "grids", layer, LAYER_INPUT).items()}

        # Kahn's algorithm, one frontier at a time, on the zero-delay graph.
        src0, dst0 = src[~delayed], dst[~delayed]
        indegree = np.bincount(dst0, minlength=n)
        level = np.full(n, -1, dtype=np.int32)
        frontier, depth = indegree == 0, 0
        while frontier.any():
            level[frontier] = depth
            out = frontier[src0]
            indegree -= np.bincount(dst0[out], minlength=n)
            src0, dst0 = src0[~out], dst0[~out]  # each synapse is used once
            frontier, depth = (indegree == 0) & (level < 0), depth + 1
        if (level < 0).any():
            raise ValueError("zero-delay synapses form a cycle through "
                             f"{str(neurons.id[np.argmax(level < 0)])!r}")
        level[layer == LAYER_INPUT] = -1  # set by the stimuli, never evaluated

        # Row 0 of the firing buffer is this tick, row 1 last tick; a
        # delay-1 synapse reads its source through the offset n.
        self._fired = np.zeros((2, n), dtype=bool)
        self._now, self._last = self._fired
        self._both = self._fired.reshape(-1)
        src[delayed] += n
        into = level[dst]  # the level each synapse feeds
        # Synapses into evaluated neurons, per source: the events a spike makes.
        self._fan_out = np.zeros(2 * n, dtype=np.int64)
        slot = np.zeros(2 * n, dtype=np.int32)  # a position in the level's rows or neurons
        self._levels = []
        for depth in np.unique(level[level >= 0]):
            nodes = np.flatnonzero(level == depth)
            mine = np.flatnonzero(into == depth)  # its synapses, in file order
            feeds = np.zeros(2 * n, dtype=bool)
            feeds[src[mine]] = True
            sources = np.flatnonzero(feeds)
            slot[sources] = np.arange(len(sources))
            row = slot[src[mine]]
            slot[nodes] = np.arange(len(nodes))
            col = slot[dst[mine]]
            self._fan_out[sources] += np.bincount(row, minlength=len(sources))
            weight = np.asarray(synapses.weight[mine], dtype=np.float64)
            kernel = _broadcast(row, col, len(sources), len(nodes), weight)
            if kernel is not None:  # the rows in their shared order, a weight each
                order, weight, sign = kernel
                self._levels.append((_run(nodes), threshold[nodes], sources[order],
                                     weight, sign, None))
                continue
            cells = np.sort(col.astype(np.int64) * len(sources) + row)  # (neuron, row)
            twice = cells[1:][cells[1:] == cells[:-1]]
            if twice.size:
                c, r = divmod(int(twice[0]), len(sources))
                raise ValueError(f"neuron {str(neurons.id[nodes[c]])!r} has two synapses "
                                 f"from {str(neurons.id[sources[r] % n])!r} with delay "
                                 f"{sources[r] // n}")
            self._levels.append((_run(nodes), threshold[nodes], src[mine].astype(np.intp),
                                 weight, None, col.astype(np.intp)))

        # Every unit's reduce neurons, unit after unit, so that one read
        # finds all winners; per position, its unit and its bin there.
        units = _owned(netlist.meta, "unit_outputs", layer, LAYER_REDUCE)
        self._unit_names = list(units)
        self._reduce = _run(np.concatenate([np.empty(0, np.intp), *units.values()]))
        self._unit_of = [u for u, bins in enumerate(units.values()) for _ in bins]
        self._bin_of = [b for bins in units.values() for b in range(len(bins))]
        self._one_each = list(range(len(units)))  # _unit_of of the hits of a good tick

    @property
    def events(self) -> int:
        """Synapses whose source fired on the last tick (delay 0) or the
        tick before (delay 1): the replay's synaptic-event count."""
        return int(self._both @ self._fan_out)

    def reset(self) -> None:
        self._fired[:] = False

    def step(self, stimuli: dict) -> dict:
        """One tick.  stimuli maps every input population of meta["grids"]
        to its hot bin index.  Returns {unit name: winning reduce bin}.
        Raises ValueError, before any state changes, for a stimulus naming
        no input neuron or a population left out; AssertionError if a
        reduce layer fails to pick a single winner."""
        hot = []
        for pop, b in stimuli.items():
            bins = self._inputs.get(pop, ())
            if (isinstance(b, bool) or not isinstance(b, (int, np.integer))
                    or not 0 <= b < len(bins)):
                raise ValueError(f"stimulus {pop!r} bin {b!r} names no input neuron")
            hot.append(bins[b])
        missing = [pop for pop in self._inputs if pop not in stimuli]
        if missing:
            raise ValueError(f"stimuli leave out the input populations {missing}")
        now = self._now
        self._last[:] = now
        now.fill(False)
        now.put(hot, True)
        for nodes, threshold, sources, weight, sign, col in self._levels:
            fired = self._both[sources]
            if col is None:  # broadcast: one file-order sum, times each neuron's sign
                s = 0.0
                for w in weight[fired].tolist():
                    s += w
                now[nodes] = sign * s >= threshold
            else:  # each synapse's neuron: the fired weights, added in file order
                now[nodes] = np.bincount(col[fired], weights=weight[fired],
                                         minlength=len(threshold)) >= threshold
        hits = now[self._reduce].nonzero()[0].tolist()
        units = [self._unit_of[h] for h in hits]
        if units != self._one_each:
            for u, name in enumerate(self._unit_names):
                won = units.count(u)
                if won != 1:
                    raise AssertionError(f"unit {name!r} reduce produced {won} winners")
        bin_of = self._bin_of
        return {name: bin_of[h] for name, h in zip(self._unit_names, hits)}
