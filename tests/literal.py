"""A literal simulator of a netlist, the reference the runtime replays against.

It reads the columns as Python lists and shares no code with
spikepid.netlist.  Each tick sets the input neurons from the stimuli;
then each non-input neuron, in zero-delay depth order, adds the weights
of its fired in-edges in file order from 0.0 and fires at s >= its
threshold.  A delay-d synapse reads its source's firing d ticks ago
(d = 0: this tick) from a ring of past ticks, so any delay >= 0 reads;
before the first tick nothing has fired.  As in the runtime, population
p of meta["grids"] owns the next n input-layer neurons in file order,
and unit u of meta["unit_outputs"] the next n reduce-layer neurons.
"""

from collections import deque

INPUT, REDUCE = "input", "reduce"


def owners(layers, grids, layer):
    """{name: [neuron index of each bin]}, the next n neurons of layer
    in file order for each grid in turn."""
    mine = iter([k for k, name in enumerate(layers) if name == layer])
    return {name: [next(mine) for _ in range(grid["n"])] for name, grid in grids.items()}


def refusal(netlist):
    """Why the runtime refuses the graph, or None: first a cycle of
    zero-delay synapses, then a source that feeds one non-input neuron
    twice with the same delay."""
    layers = netlist.neurons.layer.tolist()
    edges = list(zip(netlist.synapses.src.tolist(), netlist.synapses.dst.tolist(),
                     netlist.synapses.delay.tolist()))
    if depths(len(layers), edges) is None:
        return "cycle"
    evaluated = [(s, d, k) for s, d, k in edges if layers[d] != INPUT]
    if len(set(evaluated)) != len(evaluated):
        return "two synapses"
    return None


def depths(n, edges):
    """Each neuron's depth in the zero-delay graph of edges (src, dst,
    delay), or None if that graph has a cycle."""
    into = [[] for _ in range(n)]
    for s, d, k in edges:
        if k == 0:
            into[d].append(s)
    depth = [None] * n
    for _ in range(n + 1):
        done = True
        for v in range(n):
            if depth[v] is None:
                if all(depth[s] is not None for s in into[v]):
                    depth[v] = 1 + max((depth[s] for s in into[v]), default=-1)
                else:
                    done = False
        if done:
            return depth
    return None


class Literal:
    """The literal replay of a netlist that refusal() accepts."""

    def __init__(self, netlist):
        self.layers = netlist.neurons.layer.tolist()
        self.threshold = netlist.neurons.threshold.tolist()
        n = len(self.layers)
        edges = list(zip(netlist.synapses.src.tolist(), netlist.synapses.dst.tolist(),
                         netlist.synapses.weight.tolist(), netlist.synapses.delay.tolist()))
        self.into = [[] for _ in range(n)]  # per neuron, its in-edges in file order
        for s, d, w, k in edges:
            if self.layers[d] != INPUT:
                self.into[d].append((s, float(w), k))
        depth = depths(n, [(s, d, k) for s, d, _, k in edges])
        self.order = sorted((v for v in range(n) if self.layers[v] != INPUT),
                            key=lambda v: depth[v])
        self.inputs = owners(self.layers, netlist.meta.get("grids", {}), INPUT)
        self.units = owners(self.layers, netlist.meta.get("unit_outputs", {}), REDUCE)
        self.ring = deque(maxlen=1 + max((k for *_, k in edges), default=0))
        self.fired = [False] * n

    def reset(self):
        self.ring.clear()
        self.fired = [False] * len(self.layers)

    def step(self, stimuli):
        """Tick once; returns {unit name: the bins of its reduce neurons
        that fired}."""
        now = [False] * len(self.layers)
        for pop, b in stimuli.items():
            now[self.inputs[pop][b]] = True
        self.ring.appendleft(now)  # ring[d]: the firing d ticks ago
        for v in self.order:
            s = 0.0
            for src, w, k in self.into[v]:
                if k < len(self.ring) and self.ring[k][src]:
                    s += w
            now[v] = s >= self.threshold[v]
        self.fired = now
        return {u: [b for b, v in enumerate(reduce) if now[v]]
                for u, reduce in self.units.items()}

    @property
    def events(self):
        """In-edges of non-input neurons whose source fired at their delay."""
        return sum(k < len(self.ring) and self.ring[k][src]
                   for into in self.into for src, _, k in into)
