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
allow_pickle=False, accepts version 3 only, rejects any array but meta
and the seven columns, and checks the meta against _META_KEYS.
Netlist.validate is the one statement of a valid netlist, each column
rule a closed range decided by whole-column reductions; export, load and
NetlistRuntime each run it.  export_netlist writes each synapse column
once, in its file dtype, each unit into its own slice.

NetlistRuntime re-evaluates a netlist from the graph alone (levels from
zero-delay depth, input and reduce neurons by their place in the layer),
which gives an independent check that the exported wiring reproduces the
units' behavior bit-exactly.  Its docstring gives the one kernel per
kind of level and the two ways a graph ticks.  A broadcast level, with
the level fed only by it, is one firing table built at init and read at
the class of the level's one sum; any other level is replayed synapse by
synapse.  A graph of such tables alone, each summing runs of one-hot
populations, as every export is, ticks by winners: one weight per port,
one bisect and each unit's winner per table, with its spikes built only
when fired or events is read.  Any other graph ticks with a firing
buffer.  The runtime reads a level's synapses as a slice of the columns
when they form one run, as export writes every level, and keeps no view
of them.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate
from dataclasses import dataclass, field

import numpy as np

from .units import (LAYER_INPUT, LAYER_REDUCE, MODE_FLOOR, MODE_NEAREST, WEIGHT_MAX,
                    WEIGHT_MIN)

__all__ = ["Netlist", "export_netlist", "NetlistRuntime"]

FORMAT_VERSION = 3
# The meta keys of a version-3 file beside "version", each with its JSON
# type: what load checks them against.
_META_KEYS = {"scale": ("an object", dict), "grids": ("an object", dict),
             "mode": ("a string", str), "quantized": ("true or false", bool),
             "unit_outputs": ("an object", dict)}


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
        """Check every rule of a valid netlist: columns 1-d, of their kind
        and of equal length per table; each column in its closed range
        below, by whole-column reductions; unique ids; and meta["grids"]
        and meta["unit_outputs"] (absent: {}) objects of grid objects with
        an integer n >= 1 whose sizes add up to the input and the reduce
        neurons.  A rejection is a ValueError naming the field, with a
        column's first bad row or a meta key's entry."""
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
        n, big = len(self.neurons), np.finfo(np.float64).max
        finite = -big, big, False, "a finite number"  # [lo, hi], even, what is good
        index = 0, n - 1, False, f"a neuron index in [0, {n})"
        quantized = (WEIGHT_MIN, WEIGHT_MAX, True,
                     f"an even integer in [{WEIGHT_MIN}, {WEIGHT_MAX}]")
        for table, name, (lo, hi, even, what) in (
                (self.neurons, "threshold", finite),
                (self.synapses, "weight",
                 finite if self.synapses.weight.dtype.kind == "f" else quantized),
                (self.synapses, "src", index), (self.synapses, "dst", index),
                (self.synapses, "delay", (0, 1, False, "0 or 1"))):
            col = getattr(table, name)
            if col.size and not (lo <= col.min() and col.max() <= hi  # False for a NaN
                                 and not (even and np.bitwise_or.reduce(col) & 1)):
                # Only now a full-length mask, to name the first bad row.
                k = int(np.argmax(~((col >= lo) & (col <= hi)) | (even and (col & 1) != 0)))
                raise ValueError(f"{table.section}.{name} row {k} is {col[k]}, not {what}")
        if len(set(self.neurons.id.tolist())) != n:
            raise ValueError("neurons.id has duplicate ids")
        for key, layer in (("grids", LAYER_INPUT), ("unit_outputs", LAYER_REDUCE)):
            grids = self.meta.get(key, {})
            if not isinstance(grids, dict):
                raise ValueError(f"meta.{key} must be an object, got {grids!r}")
            for name, grid in grids.items():
                size = grid.get("n") if isinstance(grid, dict) else None
                if type(size) is not int or size < 1:
                    raise ValueError(f"meta.{key}.{name} must be an object whose n "
                                     f"is an integer >= 1, got {grid!r}")
            bins, mine = sum(g["n"] for g in grids.values()), np.sum(self.neurons.layer == layer)
            if bins != mine:
                raise ValueError(f"meta.{key} has {bins} bins but the netlist has "
                                 f"{mine} {layer} neurons")

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
        ValueError naming the field.  Beyond validate, the meta must have
        exactly the keys of _META_KEYS (and "version"), each of its JSON
        type, mode must be floor or nearest, and quantized must say
        whether the weights are integers (a file of no synapses is
        exempt)."""
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
        unknown = sorted(set(meta) - {"version", *_META_KEYS})
        if unknown:
            raise ValueError(f"meta.{unknown[0]} is not a key of a version-{FORMAT_VERSION} "
                             "netlist")
        for key, (kind, json_type) in _META_KEYS.items():
            if key not in meta:
                raise ValueError(f"meta.{key} is missing")
            if not isinstance(meta[key], json_type):
                raise ValueError(f"meta.{key} must be {kind}, got {meta[key]!r}")
        if meta["mode"] not in (MODE_FLOOR, MODE_NEAREST):
            raise ValueError(f"meta.mode must be {MODE_FLOOR!r} or {MODE_NEAREST!r}, "
                             f"got {meta['mode']!r}")
        known = {f"{table.section}.{name}" for table in (Neurons, Synapses)
                 for name in table.Row._fields}
        unknown = sorted(set(arrays) - known)
        if unknown:
            raise ValueError(f"{unknown[0]} is not an array of a version-{FORMAT_VERSION} "
                             "netlist")
        try:
            nl = cls(*(table(*(arrays[f"{table.section}.{name}"]
                               for name in table.Row._fields))
                       for table in (Neurons, Synapses)),
                     meta={k: v for k, v in meta.items() if k != "version"})
        except KeyError as err:
            raise ValueError(f"{err.args[0]} is missing") from None
        nl.validate()
        weight = nl.synapses.weight
        if len(weight) and (weight.dtype.kind in "iu") != meta["quantized"]:
            raise ValueError(f"meta.quantized is {meta['quantized']} but synapses.weight "
                             f"is {weight.dtype}")
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
    wiring: per unit, one (source, delay) pair per input port, where
    source names an input population (a key of inputs) or else a unit,
    whose reduce layer it reads.  A name that is both, or neither,
    raises ValueError.

    Each synapse column is allocated once, in its file dtype, from the
    units' synapse_count, and each unit's synapse_columns writes its rows
    into its own slice of the four, so the export peaks at little more
    than the netlist it returns.
    """
    units = list(units)
    unit_by_name = {u.name: u for u in units}
    for name in inputs:
        if name in unit_by_name:
            raise ValueError(f"wiring source {name!r} names both an input population "
                             "and a unit")
    # Index of the first neuron of each input population and each unit.
    first = dict(zip([*inputs, *unit_by_name],
                     accumulate([g.n for g in inputs.values()]
                                + [u.neuron_count for u in units], initial=0)))

    # Weights are int16 only when every unit is quantized, so a netlist
    # of no units is typed too; meta.quantized, which load holds to the
    # weights' kind, is false for it.
    ends = list(accumulate((u.synapse_count for u in units), initial=0))
    quantized = all(u.quantized for u in units)
    weight_type = np.int16 if quantized else np.float64
    columns = [np.empty(ends[-1], t) for t in (np.int32, np.int32, weight_type, np.int8)]
    for u, ports, lo, hi in zip(units, wiring, ends, ends[1:]):
        sources, delays = [], []
        for p, (src_name, delay) in enumerate(ports):
            if src_name in inputs:
                grid, start = inputs[src_name], first[src_name]
            elif src_name in unit_by_name:  # the source unit's reduce layer
                v = unit_by_name[src_name]
                grid, start = v.output, first[src_name] + v.pos_count + v.neg_count
            else:
                raise ValueError(f"port {p} of unit {u.name!r} reads {src_name!r}, "
                                 "which names no input population and no unit")
            if grid.n != u.inputs[p].grid.n:
                raise ValueError(
                    f"port {p} of unit {u.name!r} expects {u.inputs[p].grid.n} "
                    f"bins but source {src_name!r} has {grid.n}"
                )
            sources.append(np.arange(start, start + grid.n))
            delays.append(delay)
        u.synapse_columns(first[u.name], sources, delays,
                          [col[lo:hi] for col in columns])

    meta = {
        "scale": {u.name: u.scale for u in units},
        "grids": {name: g.to_dict() for name, g in inputs.items()},
        "mode": units[0].mode if units else "nearest",
        "quantized": quantized and bool(units),
        "unit_outputs": {u.name: u.output.to_dict() for u in units},
    }
    nl = Netlist(neurons=neuron_columns(units, inputs),
                 synapses=Synapses(*columns), meta=meta)
    nl.validate()
    return nl


def _run(index):
    """An index array as a slice when it is one ascending unbroken run
    (numpy reads and writes a slice faster), else the array itself."""
    if len(index) and (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _broadcast(row, col, rows: int, neurons: int, weight):
    """The shared row order, one weight per row and each neuron's sign
    (+1.0 or -1.0) of a broadcast level (see NetlistRuntime), else None.
    row[k], col[k] and weight[k] are the row, the neuron and the weight
    of the level's k-th synapse in file order.  Weights compare with ==,
    so only a zero's sign may differ from the row's weight times the sign."""
    if len(row) != neurons * rows:
        return None
    if (col.reshape(rows, neurons) == np.arange(neurons)).all():  # row by row, as export writes
        order, w = row.reshape(rows, neurons).T, weight.reshape(rows, neurons).T
    elif (np.bincount(col, minlength=neurons) != rows).any():
        return None
    else:  # each neuron's synapses in file order: a stable sort by neuron
        by = np.argsort(col.astype(np.min_scalar_type(neurons)), kind="stable")
        order, w = row[by].reshape(neurons, rows), weight[by].reshape(neurons, rows)
    if (order != order[0]).any():
        return None
    plus, minus = (w == w[0]).all(axis=1), (w == -w[0]).all(axis=1)
    if not (plus | minus).all():
        return None
    return order[0], w[0].copy(), np.where(plus, 1.0, -1.0)  # no view of w kept


def _synapse_kernel(fired, weight, col, threshold):
    """The per-synapse kernel over a batch of firing rows: fired[b, k]
    is whether the k-th synapse of a level, in file order, has its
    source firing in row b, and weight[k] and col[k] are its weight and
    its neuron's position in the level.  Returns the level's firing per
    row, [B, neurons].  np.bincount adds in array order from 0.0, so each
    neuron adds its fired in-edges in file order."""
    k = len(threshold)
    key = (np.arange(len(fired))[:, None] * k + col)[fired]
    s = np.bincount(key, weights=np.broadcast_to(weight, fired.shape)[fired],
                    minlength=len(fired) * k)
    return s.reshape(-1, k) >= threshold


def _table(head, then=None):
    """The replay of a broadcast level (see NetlistRuntime), head =
    (nodes, threshold, rows, weight, sign), as (nodes, rows, weight,
    change points, firing table).  then, if given, is (nodes, at,
    weight, col, threshold) of the level after it, whose every synapse
    comes at delay 0 from head, at[k] the position in head of the k-th
    synapse's source: its firing on each row, by _synapse_kernel, joins
    the table."""
    nodes, threshold, rows, weight, sign = head
    # sorted, not np.sort, whose SIMD path can rewrite the sign of a zero.
    points = sorted(np.where(sign > 0, threshold, np.nextafter(-threshold, np.inf)).tolist())
    rep = np.array([math.nextafter(points[0], -math.inf), *points])
    table = sign * rep[:, None] >= threshold
    if then is not None:
        more, at, *kernel = then
        nodes = np.concatenate([nodes, more])
        table = np.concatenate([table, _synapse_kernel(table[:, at], *kernel)], axis=1)
    return _run(nodes), _run(rows), weight, points, table


def _owned(meta: dict, key: str, layers, layer: str) -> dict:
    """{name: neuron indices} for the grids of meta[key] (see
    Netlist.validate), each owning the next n neurons of the layer in
    file order."""
    grids = meta.get(key, {})
    sizes = [grid["n"] for grid in grids.values()]
    mine = np.flatnonzero(layers == layer)
    return dict(zip(grids, np.split(mine, np.cumsum(sizes, dtype=np.intp)[:-1])))


def _winner_plan(levels, inputs: list, units: list, n: int):
    """How a graph ticks by winners (see NetlistRuntime), or None when
    it does not.  levels is NetlistRuntime._levels; inputs and units list
    the neurons, bin by bin, of each input population and each unit's
    reduce layer, the one-hot owners.  A tick keeps one value per owner,
    its hot bin or its winner: this tick's, then the last tick's, with
    each group's units in one run.  Returns (plan, place), place[u] the
    value of unit u and plan, per group, (points, ports, winners, at):
    each port as (the value it reads, its weight per bin and then 0.0,
    read for a port that fired nothing); per class, the winner of the
    group's one unit, or the list of its units' winners, or None where a
    unit has not exactly one; at, the value or the slice they fill."""
    if any(points is None for *_, points, _ in levels):
        return None
    group, column = np.full(n, -1, np.intp), np.zeros(n, np.intp)
    for g, (nodes, *_) in enumerate(levels):
        mine = np.arange(n)[nodes]
        group[mine], column[mine] = g, np.arange(len(mine))
    homes = [group[reduce] for reduce in units]  # every neuron past the inputs has one
    if any((home != home[0]).any() for home in homes):
        return None  # a unit whose reduce layer spans two groups
    rank = sorted(range(len(units)), key=lambda u: homes[u][0])
    owners = [*inputs, *(units[u] for u in rank)]
    k = len(owners)
    key, bin_ = np.full(2 * n, -1, np.intp), np.zeros(2 * n, np.intp)
    for o, mine in enumerate(owners):  # a delay-1 row is its neuron + n
        key[mine], key[mine + n] = o, k + o
        bin_[mine] = bin_[mine + n] = np.arange(len(mine))
    plan, first = [], len(inputs)
    for g, (_, rows, weight, points, table) in enumerate(levels):
        rows = np.arange(2 * n)[rows]
        owner = key[rows]
        if (owner < 0).any():
            return None  # a row that no one-hot population owns
        starts = [0, *(np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()][:len(rows)]
        ports = []
        for lo, hi in zip(starts, [*starts[1:], len(rows)]):
            o = int(owner[lo])
            w = np.zeros(len(owners[o % k]) + 1)  # the last bin: a port that fired nothing
            w[bin_[rows[lo:hi]]] = weight[lo:hi]
            ports.append((o, w.tolist()))
        last = first + sum(int(home[0]) == g for home in homes)
        won, one = [], np.ones(len(table), bool)
        for reduce in owners[first:last]:
            hit = table[:, _run(column[reduce])]
            won.append(hit.argmax(axis=1))
            one &= np.count_nonzero(hit, axis=1) == 1
        if last - first == 1:  # the unit's winner per class, into its value
            at, winners = first, np.where(one, won[0], None).tolist()
        else:  # the list of the units' winners per class, into their run of values
            at, won = slice(first, last), np.reshape(won, (last - first, len(table))).T
            winners = [w if ok else None for w, ok in zip(won.tolist(), one.tolist())]
        plan.append((points, ports, winners, at))
        first = last
    return plan, [len(inputs) + rank.index(u) for u in range(len(units))]


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
    s, in a Python loop (numpy sums 8 or more terms pairwise), and each
    neuron fires at sign * s >= threshold: negation commutes with
    rounding.  Every other level is its synapses in file order, and a
    tick adds the fired ones per neuron with np.bincount, which adds in
    array order from 0.0 (_synapse_kernel).  Either way each neuron's sum
    is the file-order sum of its fired in-edges, bit for bit up to the
    sign of a zero sum, which no threshold compare sees.

    So a broadcast level's firing is a step function of s.  A neuron of
    sign +1 changes at its threshold t, one of sign -1 at nextafter(-t,
    inf), since -s >= t is s < nextafter(-t, inf); with these points
    sorted, bisect_right(points, s) is the class of s, and every compare
    is constant within a class.  Init evaluates the compares once per
    class, on a representative (just below the first point, then each
    point), into a firing table.  A sum of finite weights from 0.0 is
    never NaN, since one that overflows to +-inf stays there, and +-inf
    falls in an end class.  The level after a broadcast level joins its
    table when every synapse into it comes at delay 0 from the broadcast
    level's neurons, as each unit's reduce layer does: init evaluates it
    on each class's row with _synapse_kernel.  A broadcast level and the
    level that joins it make a group, whose firing is its table's row at
    the class of its one sum.

    A graph ticks one of two ways.  It ticks by winners when every level
    is in a group, each group's rows split into ports, and each unit's
    reduce neurons lie in one group, as in every export.  A port is a run
    of rows, in the group's row order, of one one-hot population at one
    delay: an input population, or a unit's reduce layer.  Such a port
    fires at most one row, the population's hot bin or the unit's
    winner, so a tick adds one weight per port in row order from 0.0,
    bisects, and reads each unit's winner from its class: the adds of
    the fired rows, bit for bit, but for a port whose bin has no row
    there (or a delay-1 port after reset, which has fired nothing),
    which adds 0.0 and so changes only the sign of a zero sum.  The tick
    keeps the hot bins and each group's class, for this tick and the
    last, beside the value (hot bin or winner) of each one-hot owner that
    its ports read; fired and events build the firing when read.  A
    tick that lands in a class where a unit has not exactly one winner
    replays with a firing buffer rebuilt from that state, whose winner
    check raises; so does the tick after it, which may read those spikes
    at delay 1.  Any other graph ticks with the firing buffer alone:
    level by level, each by its kernel, a group writing its table's row.

    Construction runs Netlist.validate, so it refuses what export and
    load refuse, by the same message.  Beyond that it checks only what
    the graph alone shows: it raises ValueError, naming the neuron, for
    a zero-delay cycle and for a source that feeds one neuron twice with
    the same delay.
    """

    def __init__(self, netlist: Netlist):
        netlist.validate()
        neurons, synapses = netlist.neurons, netlist.synapses
        n, layer = len(neurons), neurons.layer
        src = synapses.src.astype(np.int32)  # a copy: delay-1 sources move by n below
        dst, delayed = synapses.dst, synapses.delay == 1
        threshold = np.asarray(neurons.threshold, dtype=np.float64)
        # The stimulus table: population -> the neuron of each of its bins.
        inputs = _owned(netlist.meta, "grids", layer, LAYER_INPUT)
        self._inputs = {pop: bins.tolist() for pop, bins in inputs.items()}

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

        # Row 0 of a firing buffer is this tick, row 1 last tick; a
        # delay-1 synapse reads its source through the offset n.
        self._n = n
        src[delayed] += n
        into = level[dst]  # the level each synapse feeds
        # Synapses into evaluated neurons, per source: the events a spike makes.
        self._fan_out = np.zeros(2 * n, dtype=np.int64)
        slot = np.zeros(2 * n, dtype=np.int32)  # a position in the level's rows or neurons
        self._levels = []
        head = None  # a broadcast level, until the next one shows whether it joins it
        for depth in np.unique(level[level >= 0]):
            nodes = np.flatnonzero(level == depth)
            # Its synapses, in file order: a slice when they form one run.
            mine = _run(np.flatnonzero(into == depth))
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
            if kernel is None:
                cells = np.sort(col.astype(np.int64) * len(sources) + row)  # (neuron, row)
                twice = cells[1:][cells[1:] == cells[:-1]]
                if twice.size:
                    c, r = divmod(int(twice[0]), len(sources))
                    raise ValueError(f"neuron {str(neurons.id[nodes[c]])!r} has two synapses "
                                     f"from {str(neurons.id[sources[r] % n])!r} with delay "
                                     f"{sources[r] // n}")
            if head is not None and feeds[head[0]].sum() == len(sources):
                # Every source is a neuron of head, read at delay 0.
                self._levels.append(_table(head, (nodes, np.searchsorted(head[0], src[mine]),
                                                  weight, col, threshold[nodes])))
                head = None
                continue
            if head is not None:
                self._levels.append(_table(head))
                head = None
            if kernel is not None:  # the rows in their shared order, a weight each
                order, weight, sign = kernel
                head = nodes, threshold[nodes], sources[order], weight, sign
                continue
            self._levels.append((_run(nodes), src[mine].astype(np.intp),
                                 weight.copy(),  # no view of the netlist kept
                                 None, (col.astype(np.intp), threshold[nodes])))
        if head is not None:
            self._levels.append(_table(head))

        # Every unit's reduce neurons, unit after unit, so that one read
        # finds all winners; per position, its unit and its bin there.
        units = _owned(netlist.meta, "unit_outputs", layer, LAYER_REDUCE)
        self._unit_names = list(units)
        self._reduce = _run(np.concatenate([np.empty(0, np.intp), *units.values()]))
        self._unit_of = [u for u, bins in enumerate(units.values()) for _ in bins]
        self._bin_of = [b for bins in units.values() for b in range(len(bins))]
        self._one_each = list(range(len(units)))  # _unit_of of the hits of a good tick
        self._plan, place = _winner_plan(
            self._levels, list(inputs.values()), list(units.values()), n) or (None, ())
        self._place = list(zip(self._unit_names, place))  # each unit's value
        self.reset()

    @property
    def events(self) -> int:
        """Synapses whose source fired on the last tick (delay 0) or the
        tick before (delay 1): the replay's synaptic-event count."""
        return int(self._state().reshape(-1) @ self._fan_out)

    @property
    def fired(self) -> np.ndarray:
        """The last tick's firing, one bool per neuron in netlist order
        (all False before the first tick and after reset): a copy, so
        the next tick leaves it as it is."""
        return self._state()[0].copy()

    def reset(self) -> None:
        if self._plan is None:
            self._fired = np.zeros((2, self._n), dtype=bool)
        else:  # nothing has fired: -1 reads each port's last weight, 0.0
            self._now = self._last = None
            self._values = [-1] * (2 * len(self._inputs) + 2 * len(self._place))

    def _row(self, state) -> np.ndarray:
        """The firing of a tick by winners from its kept (hot bins,
        classes), or of no tick (None)."""
        row = np.zeros(self._n, dtype=bool)
        if state is not None:
            bins, classes = state
            row[[neurons[b] for neurons, b in zip(self._inputs.values(), bins)]] = True
            for (nodes, *_, table), c in zip(self._levels, classes):
                row[nodes] = table[c]
        return row

    def _state(self) -> np.ndarray:
        """The firing buffer: the last tick's firing, then the one before."""
        if self._plan is None:
            return self._fired
        return np.stack([self._row(self._now), self._row(self._last)])

    def _tick(self, fired, bins) -> list:
        """One tick on the firing buffer fired, level by level; returns
        each group's class."""
        now, both = fired[0], fired.reshape(-1)
        fired[1] = now
        now.fill(False)
        now.put([neurons[b] for neurons, b in zip(self._inputs.values(), bins)], True)
        classes = []
        for nodes, sources, weight, points, table in self._levels:
            active = both[sources]
            if points is not None:  # one file-order sum; its class's row
                s = 0.0
                for w in weight[active].tolist():
                    s += w
                classes.append(bisect_right(points, s))
                now[nodes] = table[classes[-1]]
            else:  # synapse by synapse; table is (col, threshold)
                now[nodes] = _synapse_kernel(active[None], weight, *table)[0]
        return classes

    def _winners(self, now) -> dict:
        """{unit name: winning reduce bin} of the firing now."""
        hits = now[self._reduce].nonzero()[0].tolist()
        units = [self._unit_of[h] for h in hits]
        if units != self._one_each:
            for u, name in enumerate(self._unit_names):
                won = units.count(u)
                if won != 1:
                    raise AssertionError(f"unit {name!r} reduce produced {won} winners")
        bin_of = self._bin_of
        return {name: bin_of[h] for name, h in zip(self._unit_names, hits)}

    def step(self, stimuli: dict) -> dict:
        """One tick.  stimuli maps every input population of meta["grids"]
        to its hot bin index.  Returns {unit name: winning reduce bin}.
        Raises ValueError, before any state changes, for a stimulus naming
        no input neuron or a population left out; AssertionError if a
        reduce layer fails to pick a single winner."""
        inputs = self._inputs
        for pop, b in stimuli.items():
            if ((type(b) is not int and (isinstance(b, bool)
                                         or not isinstance(b, (int, np.integer))))
                    or not 0 <= b < len(inputs.get(pop, ()))):
                raise ValueError(f"stimulus {pop!r} bin {b!r} names no input neuron")
        try:
            bins = [stimuli[pop] for pop in inputs]
        except KeyError:
            missing = [pop for pop in inputs if pop not in stimuli]
            raise ValueError(f"stimuli leave out the input populations {missing}") from None
        if self._plan is None:
            self._tick(self._fired, bins)
            return self._winners(self._fired[0])
        values = self._values
        if values is not None:  # by winners
            half = len(values) // 2
            values[half:] = values[:half]
            values[:len(bins)] = bins
            classes = []
            for points, ports, winners, at in self._plan:
                s = 0.0
                for i, w in ports:
                    s += w[values[i]]
                c = bisect_right(points, s)
                if winners[c] is None:
                    break
                values[at] = winners[c]
                classes.append(c)
            else:
                self._last, self._now = self._now, (bins, classes)
                return {name: values[i] for name, i in self._place}
        # Not exactly one winner, on this tick or the last: the firing buffer.
        fired = self._state()
        state = bins, self._tick(fired, bins)
        self._last, self._now = self._now, state
        self._values = None  # until the tick shows one winner per unit
        won = self._winners(fired[0])
        self._values = [*bins, *(won[name] for name, _ in sorted(
            self._place, key=lambda unit: unit[1]))] * 2
        return won
