"""Deterministic spiking arithmetic units (aggregate + reduce layers).

An adder unit turns one-hot position-coded inputs into a one-hot
position-coded sum.  Input neurons connect densely into two aggregate
sub-populations: the positive one receives each input's value as a
synaptic weight, the negative one the negated value, so negative sums are
carried as positive potentials and negative thresholds are never needed.
Aggregate thresholds grow with output magnitude, which makes the firing
set a prefix of each sub-population; the reduce layer then picks the
largest firing aggregate neuron through one excitatory and one adjacent
inhibitory synapse per value, yielding a single winner.

Zero is owned by both sub-populations: the positive zero neuron
(threshold 0) fires for any sum >= 0, while the negative zero neuron gets
an epsilon threshold so it fires only for strictly negative sums.  Both
excite the zero reduce neuron and are overruled by their first non-zero
neighbor, so sums that round to zero from either side still produce the
zero spike.  The shared zero is why a unit with N output values has
exactly 2N + 1 neurons.

Weights quantize to even integers in [-256, 254] (8-bit with one sign bit
and an implicit factor 2); thresholds quantize to plain integers.

AdderUnit.eval_bins is the one literal propagation: it evaluates a batch
of input-bin rows through both layers and returns every firing mask.
eval_unit, eval_all_pairs, SpikeTrace.raster (re-deriving recorded
spikes from their bins) and the exhaustive verification all call it.
AdderUnit.winner_bin is the one path the controller ticks on; it skips
the layers through the prefix property and is bit-identical to eval_bins.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .grids import ValueGrid

__all__ = [
    "NeuronSpec",
    "SynapseSpec",
    "InputSpec",
    "AdderUnit",
    "build_adder",
    "eval_unit",
    "quantize_weight",
    "choose_scale",
    "one_hot",
]

MODE_FLOOR = "floor"
MODE_NEAREST = "nearest"

WEIGHT_MIN = -256
WEIGHT_MAX = 254

# Float-mode threshold of the negative zero neuron: the smallest positive
# double, so "-S >= eps" is exactly "S < 0".
FLOAT_EPSILON = math.ulp(0.0)

LAYER_INPUT = "input"
LAYER_AGG_POS = "aggregate-pos"
LAYER_AGG_NEG = "aggregate-neg"
LAYER_REDUCE = "reduce"

# Reduce synapses use +/-2 so they stay legal even integers; with a
# reduce threshold of 1, one excitatory spike fires the neuron and one
# inhibitory spike vetoes it.
REDUCE_EXC = 2
REDUCE_INH = -2
REDUCE_THRESHOLD = 1


@dataclass(frozen=True)
class NeuronSpec:
    id: str
    layer: str
    threshold: float  # integer-valued in quantized mode


@dataclass(frozen=True)
class SynapseSpec:
    src: str
    dst: str
    weight: float  # even integer in quantized mode
    delay: int = 0


@dataclass(frozen=True)
class InputSpec:
    """One input population: its grid, the sign of its contribution
    (+1 add, -1 subtract) and a scalar gain folded into the weights."""

    grid: ValueGrid
    sign: int = 1
    gain: float = 1.0


def round_half_away(x: float) -> int:
    """Round to nearest integer, ties away from zero."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def quantize_weight(w: float, scale: float) -> int:
    """Map a real weight to the nearest even integer at the given scale,
    clamped to the representable range [-256, 254]."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    q = 2 * round_half_away(w * scale / 2.0)
    return max(WEIGHT_MIN, min(WEIGHT_MAX, q))


def choose_scale(weights) -> int:
    """Largest integer scale with max|w| * scale <= 254.

    One scale is used for all weights and thresholds of a unit so their
    relative magnitudes survive quantization.
    """
    max_w = max((abs(w) for w in weights), default=0.0)
    if max_w == 0.0:
        raise ValueError("cannot scale an all-zero weight set")
    scale = int(WEIGHT_MAX // max_w)
    while (scale + 1) * max_w <= WEIGHT_MAX:
        scale += 1
    while scale > 0 and scale * max_w > WEIGHT_MAX:
        scale -= 1
    if scale < 1:
        raise ValueError(f"weight magnitude {max_w} exceeds the representable range")
    return scale


def one_hot(n: int, i: int) -> np.ndarray:
    pattern = np.zeros(n, dtype=bool)
    pattern[i] = True
    return pattern


class AdderUnit:
    """A built adder/subtractor: weight tables, thresholds, reduce wiring.

    Constructed via build_adder.  Evaluation is a pure function of the
    input bins; the unit holds no mutable state.
    """

    def __init__(self, name, inputs, output, mode, quantized, scale,
                 weights, thr_pos, thr_neg):
        self.name = name
        self.inputs: tuple[InputSpec, ...] = inputs
        self.output: ValueGrid = output
        self.mode = mode
        self.quantized = quantized
        self.scale = scale
        # weights[p][i]: synaptic weight from input-p neuron i into every
        # aggregate-pos neuron (negated into aggregate-neg).
        self.weights: list[list] = weights
        self.thr_pos: list = thr_pos  # per pos neuron, ascending
        self.thr_neg: list = thr_neg  # per neg neuron, by magnitude

        self.zero_index = output.zero_index
        self.n_out = output.n
        self.pos_count = len(thr_pos)
        self.neg_count = len(thr_neg)

        self._thr_pos_col = np.asarray(thr_pos)[:, None]
        self._thr_neg_col = np.asarray(thr_neg)[:, None]
        self._weight_arrs = [np.asarray(w) for w in weights]
        self._build_reduce_wiring()

    # -- structure ---------------------------------------------------------

    def _build_reduce_wiring(self):
        """Per reduce neuron: aggregate indices of its excitatory and
        inhibitory sources (global aggregate index: pos k -> k,
        neg k -> pos_count + k; -1 means no synapse)."""
        z = self.zero_index
        exc1, exc2, inh1, inh2 = [], [], [], []
        for r in range(self.n_out):
            if r > z:
                k = r - z
                exc1.append(k)
                exc2.append(-1)
                inh1.append(k + 1 if k + 1 < self.pos_count else -1)
                inh2.append(-1)
            elif r < z:
                k = z - r
                exc1.append(self.pos_count + k)
                exc2.append(-1)
                inh1.append(self.pos_count + k + 1 if k + 1 < self.neg_count else -1)
                inh2.append(-1)
            else:
                exc1.append(0)  # pos zero
                exc2.append(self.pos_count)  # neg zero (epsilon)
                inh1.append(1 if self.pos_count > 1 else -1)
                inh2.append(self.pos_count + 1 if self.neg_count > 1 else -1)
        self._exc1 = np.array(exc1)
        self._exc2 = np.array(exc2)
        self._inh1 = np.array(inh1)
        self._inh2 = np.array(inh2)

    @property
    def neuron_count(self) -> int:
        return self.pos_count + self.neg_count + self.n_out

    # -- evaluation --------------------------------------------------------

    def potential(self, bins) -> float:
        """Summed drive into the aggregate-pos layer for the given input
        bins (the aggregate-neg layer sees its negation)."""
        s = self.weights[0][bins[0]]
        for w, b in zip(self.weights[1:], bins[1:]):
            s = s + w[b]
        return s

    def winner_bin(self, *bins) -> int:
        """Output bin for the given input bins (fast path).

        Uses the prefix-firing property: the reduce winner is the largest
        output value whose aggregate threshold is reached, found by
        bisection over the same thresholds the spiking path compares
        against.  Bit-identical to eval_bins (tested exhaustively).
        """
        s = self.potential(bins)
        if s >= 0:
            k = bisect_right(self.thr_pos, s) - 1
            return self.zero_index + k
        k = bisect_right(self.thr_neg, -s) - 1
        return self.zero_index - max(k, 0)

    def eval_bins(self, bins):
        """Literal spike propagation for a batch of input-bin rows.

        bins: integer array [B, P], one bin per input population per row.
        Every aggregate neuron compares the row's potential (summed left
        to right, as in potential) with its threshold; every reduce
        neuron sums its excitatory and inhibitory aggregate sources and
        compares with REDUCE_THRESHOLD.  Returns (winners[B],
        pos[B, pos_count], neg[B, neg_count], reduce[B, n_out]), the
        last three as boolean firing masks (views of arrays this call
        allocates).  Raises if any row's reduce layer does not produce
        exactly one winner.
        """
        bins = np.asarray(bins)
        s = self._weight_arrs[0][bins[:, 0]]
        for p in range(1, len(self._weight_arrs)):
            s = s + self._weight_arrs[p][bins[:, p]]
        pc, nc = self.pos_count, self.neg_count
        # Firing with one row per aggregate neuron (pos, then neg) and one
        # column per batch row, so each reduce source is a contiguous row.
        # The last row pads the wiring tables' -1 ("no synapse").
        agg = np.zeros((pc + nc + 1, len(s)), dtype=bool)
        np.greater_equal(s, self._thr_pos_col, out=agg[:pc])
        np.greater_equal(-s, self._thr_neg_col, out=agg[pc:-1])
        fire = agg.view(np.int8)
        red = (REDUCE_EXC * (fire[self._exc1] + fire[self._exc2])
               + REDUCE_INH * (fire[self._inh1] + fire[self._inh2]))
        red_fire = red >= REDUCE_THRESHOLD
        counts = red_fire.sum(axis=0, dtype=np.int32)
        if (counts != 1).any():
            bad = int(np.flatnonzero(counts != 1)[0])
            raise AssertionError(
                f"reduce layer of {self.name!r} produced {counts[bad]} winners "
                f"for input bins {bins[bad].tolist()}"
            )
        return red_fire.argmax(axis=0), agg[:pc].T, agg[pc:-1].T, red_fire.T

    def eval_all_pairs(self):
        """Spiking evaluation of every input-bin combination: an array of
        output bins shaped by the input sizes."""
        sizes = [spec.grid.n for spec in self.inputs]
        bins = np.indices(sizes).reshape(len(sizes), -1).T
        return self.eval_bins(bins)[0].reshape(sizes)

    # -- netlist pieces ----------------------------------------------------

    def neuron_specs(self) -> list[NeuronSpec]:
        out = []
        for k, t in enumerate(self.thr_pos):
            out.append(NeuronSpec(f"{self.name}.agg_pos[{k}]", LAYER_AGG_POS, t))
        for k, t in enumerate(self.thr_neg):
            out.append(NeuronSpec(f"{self.name}.agg_neg[{k}]", LAYER_AGG_NEG, t))
        for r in range(self.n_out):
            out.append(
                NeuronSpec(f"{self.name}.reduce[{r}]", LAYER_REDUCE, REDUCE_THRESHOLD)
            )
        return out

    def synapse_specs(self, input_ids, input_delays=None) -> list[SynapseSpec]:
        """Synapses of this unit.  input_ids[p] is a callable mapping a
        bin index of input population p to its source neuron id;
        input_delays[p] is the tick delay of that population's edges."""
        delays = input_delays or [0] * len(self.inputs)
        ids = [n.id for n in self.neuron_specs()]
        pc, agg = self.pos_count, self.pos_count + self.neg_count
        pos_ids, neg_ids, agg_ids = ids[:pc], ids[pc:agg], ids[:agg]
        out = []
        for p, spec in enumerate(self.inputs):
            d = delays[p]
            for i in range(spec.grid.n):
                w, src = self.weights[p][i], input_ids[p](i)
                out += [SynapseSpec(src, dst, w, d) for dst in pos_ids]
                out += [SynapseSpec(src, dst, -w, d) for dst in neg_ids]
        for r, dst in enumerate(ids[agg:]):
            for exc in (self._exc1[r], self._exc2[r]):
                if exc >= 0:
                    out.append(SynapseSpec(agg_ids[exc], dst, REDUCE_EXC))
            for inh in (self._inh1[r], self._inh2[r]):
                if inh >= 0:
                    out.append(SynapseSpec(agg_ids[inh], dst, REDUCE_INH))
        return out


def _aggregate_thresholds(output: ValueGrid, mode: str):
    """Float threshold ladders (pre-scaling) for both sub-populations.

    floor mode: thresholds sit on the output magnitudes themselves, so a
    sum fires everything up to the largest value it covers (truncation
    toward zero).  nearest mode: thresholds sit on the midpoints between
    adjacent magnitudes, so the winner is the closest value (ties away
    from zero).
    """
    z = output.zero_index
    pos_vals = [output.values[i] for i in range(z, output.n)]
    neg_mags = [-output.values[i] for i in range(z, -1, -1)]  # [0.0, |v|...]
    if mode == MODE_FLOOR:
        thr_pos = list(pos_vals)
        thr_neg = list(neg_mags)
    elif mode == MODE_NEAREST:
        thr_pos = [0.0] + [
            (pos_vals[k - 1] + pos_vals[k]) / 2.0 for k in range(1, len(pos_vals))
        ]
        thr_neg = [0.0] + [
            (neg_mags[k - 1] + neg_mags[k]) / 2.0 for k in range(1, len(neg_mags))
        ]
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")
    return thr_pos, thr_neg


def build_adder(inputs, output: ValueGrid, mode: str = MODE_NEAREST,
                quantized: bool = False, name: str = "adder") -> AdderUnit:
    """Build an adder unit over the given input populations.

    inputs: sequence of InputSpec (or (grid, sign, gain) tuples).
    The output grid must contain the exact value 0 -- the positive and
    negative aggregate sub-populations split there.
    """
    specs = []
    for item in inputs:
        if isinstance(item, InputSpec):
            specs.append(item)
        else:
            grid, sign, gain = item
            specs.append(InputSpec(grid, sign, gain))
    if not specs:
        raise ValueError("adder needs at least one input population")
    if output.n == 0:
        raise ValueError("output grid is empty")
    if output.zero_index is None:
        raise ValueError(
            "adder output grid must contain the value 0 "
            "(the aggregate layer splits into >=0 and <=0 sub-populations)"
        )
    for spec in specs:
        if spec.sign not in (1, -1):
            raise ValueError(f"input sign must be +1 or -1, got {spec.sign}")

    float_weights = []
    for spec in specs:
        row = [spec.gain * v for v in spec.grid.values]
        if spec.sign < 0:
            row = [-w for w in row]
        float_weights.append(row)

    thr_pos_f, thr_neg_f = _aggregate_thresholds(output, mode)

    if quantized:
        scale = choose_scale([w for row in float_weights for w in row])
        weights = [[quantize_weight(w, scale) for w in row] for row in float_weights]
        # Non-zero thresholds clamp to >= 1 so no magnitude neuron can fire
        # on a zero sum after rounding (rounding is monotone, so the
        # ladders stay sorted and the prefix-firing property survives).
        thr_pos = [0] + [
            max(1, round_half_away(t * scale)) for t in thr_pos_f[1:]
        ]
        thr_neg = [1] + [  # epsilon: strictly-negative detector
            max(1, round_half_away(t * scale)) for t in thr_neg_f[1:]
        ]
    else:
        scale = 1.0
        weights = float_weights
        thr_pos = thr_pos_f
        thr_neg = list(thr_neg_f)
        thr_neg[0] = FLOAT_EPSILON

    return AdderUnit(
        name=name,
        inputs=tuple(specs),
        output=output,
        mode=mode,
        quantized=quantized,
        scale=scale,
        weights=weights,
        thr_pos=thr_pos,
        thr_neg=thr_neg,
    )


def eval_unit(unit: AdderUnit, spikes):
    """Evaluate one tick of spike propagation through the unit.

    spikes: one one-hot pattern (sequence of 0/1) per input population.
    Returns (output pattern, aggregate pattern) as boolean arrays; the
    aggregate pattern is the pos sub-population followed by the neg one.
    Raises ValueError if any input pattern is not one-hot.
    """
    if len(spikes) != len(unit.inputs):
        raise ValueError(
            f"expected {len(unit.inputs)} input patterns, got {len(spikes)}"
        )
    bins = []
    for p, pattern in enumerate(spikes):
        arr = np.asarray(pattern)
        if arr.shape != (unit.inputs[p].grid.n,):
            raise ValueError(
                f"input {p} pattern has shape {arr.shape}, "
                f"expected ({unit.inputs[p].grid.n},)"
            )
        hot = np.flatnonzero(arr)
        if hot.size != 1:
            raise ValueError(f"input {p} pattern is not one-hot")
        bins.append(int(hot[0]))
    winners, pos_fire, neg_fire, _ = unit.eval_bins([bins])
    return one_hot(unit.n_out, winners[0]), np.concatenate([pos_fire[0], neg_fire[0]])
