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
eval_unit, eval_all_pairs and SpikeTrace.raster (re-deriving recorded
spikes from their bins) call it.  AdderUnit.eval_all_pairs is the one
exhaustive path, for any number of inputs: it propagates one row per
aggregate firing class (AdderUnit.firing_class), since rows whose
potentials no threshold separates fire every neuron alike.
AdderUnit.winner_bin skips the layers through the prefix property and
is bit-identical to eval_bins: the winner is the number of the unit's
sorted step points (where a non-zero pos neuron starts firing or a
non-zero neg neuron stops) at or below the summed potential.  The
controller ticks its two-input units from their eval_all_pairs maps,
built once per config, and its three-input control unit inline on
AdderUnit.tick_tables, the weight rows and step points winner_bin reads,
with winner_bin's adds in its order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .grids import ValueGrid

__all__ = [
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
# eval_bins applies the reduce weights as one factor on (excitatory -
# inhibitory) spike counts, which needs equal magnitudes.
assert REDUCE_INH == -REDUCE_EXC


@dataclass(frozen=True)
class InputSpec:
    """One input population: its grid, the sign of its contribution
    (+1 add, -1 subtract) and a scalar gain folded into the weights."""

    grid: ValueGrid
    sign: int = 1
    gain: float = 1.0


def round_half_away(x):
    """Round to nearest integer, ties away from zero.  x is a float
    (returns an int) or a numpy array (returns a float array of the
    integers the same rule gives elementwise)."""
    if isinstance(x, np.ndarray):
        return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


def quantize_weight(w, scale: float):
    """Map a real weight to the nearest even integer at the given scale,
    clamped to the representable range [-256, 254].  w is a float
    (returns an int) or a numpy array (returns an int64 array)."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    q = 2 * round_half_away(w * scale / 2.0)
    if isinstance(q, np.ndarray):
        return np.clip(q, WEIGHT_MIN, WEIGHT_MAX).astype(np.int64)
    return max(WEIGHT_MIN, min(WEIGHT_MAX, q))


def choose_scale(weights) -> int:
    """Largest integer scale with max|w| * scale <= 254.

    One scale is used for all weights and thresholds of a unit so their
    relative magnitudes survive quantization.
    """
    max_w = float(np.max(np.abs(np.asarray(weights, dtype=float)), initial=0.0))
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

        # Where each neg neuron (-s >= thr) stops firing as the potential
        # s rises: the least s with -s < thr, 1 - thr on a quantized
        # unit's integer potentials.  winner_bin's step points are those
        # of the non-zero neurons; firing_class's ladder adds the zeros'.
        stops = ([1 - t for t in thr_neg] if quantized
                 else [math.nextafter(-t, math.inf) for t in thr_neg])
        points = sorted([*thr_pos[1:], *stops[1:]])
        self._ladder = np.sort([thr_pos[0], stops[0], *points])
        # (weight rows, step points): what winner_bin reads, in one
        # attribute read per call, and what NpidNetwork.step inlines.
        self.tick_tables = (tuple(weights), points)
        self._thr_pos_col = np.asarray(thr_pos)[:, None]
        self._thr_neg_col = np.asarray(thr_neg)[:, None]
        self._weight_arrs = [np.asarray(w) for w in weights]
        self._build_reduce_wiring()

    # -- structure ---------------------------------------------------------

    def _build_reduce_wiring(self):
        """Per reduce neuron: aggregate indices of its excitatory and
        inhibitory sources (global aggregate index: pos k -> k,
        neg k -> pos_count + k; -1 means no synapse)."""
        z, pc, nc = self.zero_index, self.pos_count, self.neg_count
        r = np.arange(self.n_out)
        k = np.abs(r - z)  # the magnitude index of each reduce neuron
        neg = r < z
        base = np.where(neg, pc, 0)  # pos k -> k, neg k -> pc + k
        self._exc1 = base + k  # the zero neuron gets pos zero
        self._inh1 = np.where(k + 1 < np.where(neg, nc, pc), base + k + 1, -1)
        self._exc2 = np.full(self.n_out, -1)
        self._exc2[z] = pc  # neg zero (epsilon)
        self._inh2 = np.full(self.n_out, -1)
        self._inh2[z] = pc + 1 if nc > 1 else -1

    @property
    def neuron_count(self) -> int:
        return self.pos_count + self.neg_count + self.n_out

    # -- evaluation --------------------------------------------------------

    def winner_bin(self, *bins) -> int:
        """Output bin for the given input bins (fast path).

        Uses the prefix-firing property: the reduce winner is the number
        of step points at or below the input weights summed left to
        right.  A sum >= 0 passes all zero_index neg stops and each pos
        threshold it reaches; a sum < 0 reaches no pos threshold and
        passes the stops of the neg neurons that do not fire on it.
        Bit-identical to eval_bins (tested exhaustively).
        """
        weights, points = self.tick_tables
        # Not sum(): from Python 3.12 it compensates float sums, which
        # eval_bins' numpy adds do not.
        s = weights[0][bins[0]]
        for p in range(1, len(weights)):
            s = s + weights[p][bins[p]]
        return bisect_right(points, s)

    def potentials(self, bins):
        """Potential of each input-bin row: bins is an integer array
        [B, P], one bin per input population per row, and each row's
        input weights are summed left to right, as winner_bin sums them.
        An aggregate neuron sees a row only through this value."""
        bins = np.asarray(bins)
        s = self._weight_arrs[0][bins[:, 0]]
        for p in range(1, len(self._weight_arrs)):
            s = s + self._weight_arrs[p][bins[:, p]]
        return s

    def firing_class(self, s):
        """Aggregate firing class of each potential in the array s: how
        many entries of one sorted ladder are <= s, an integer in
        [0, pos_count + neg_count].  The ladder is winner_bin's step
        points plus the two zero neurons' entries: each thr_pos entry
        (where a pos neuron starts firing) and, per neg threshold thr, the
        least s where that neuron (-s >= thr) stops: nextafter(-thr, inf),
        or 1 - thr on a quantized unit, whose potentials are integers.  So
        the count is pos firing + neg_count - neg firing.  Both parts are
        monotone in s, so equal counts mean no threshold lies between two
        potentials and every aggregate neuron fires alike on them; the
        ladder is sorted, so this holds whatever the order of thr_pos and
        thr_neg and does not lean on the prefix property."""
        return np.searchsorted(self._ladder, s, side="right")

    def eval_bins(self, bins):
        """Literal spike propagation for a batch of input-bin rows.

        bins: integer array [B, P], one bin per input population per row.
        Every aggregate neuron compares the row's potential (summed left
        to right, as in winner_bin) with its threshold; every reduce
        neuron sums its excitatory and inhibitory aggregate sources and
        compares with REDUCE_THRESHOLD.  Returns (winners[B],
        pos[B, pos_count], neg[B, neg_count], reduce[B, n_out]), the
        last three as boolean firing masks (views of arrays this call
        allocates).  Raises if any row's reduce layer does not produce
        exactly one winner.
        """
        bins = np.asarray(bins)
        s = self.potentials(bins)
        pc, nc = self.pos_count, self.neg_count
        # Firing with one row per aggregate neuron (pos, then neg) and one
        # column per batch row, so each reduce source is a contiguous row.
        # The last row pads the wiring tables' -1 ("no synapse").
        agg = np.zeros((pc + nc + 1, len(s)), dtype=bool)
        np.greater_equal(s, self._thr_pos_col, out=agg[:pc])
        np.greater_equal(-s, self._thr_neg_col, out=agg[pc:-1])
        fire = agg.view(np.int8)
        # Excitatory minus inhibitory spikes per reduce neuron, then the
        # one weight magnitude (REDUCE_INH == -REDUCE_EXC).  Only the zero
        # neuron has a second pair of sources, so that pair is gathered
        # for the neurons it is wired to, not for every neuron.
        red = fire[self._exc1]
        red -= fire[self._inh1]
        wired = self._exc2 >= 0
        red[wired] += fire[self._exc2[wired]]
        wired = self._inh2 >= 0
        red[wired] -= fire[self._inh2[wired]]
        red *= REDUCE_EXC
        red_fire = red >= REDUCE_THRESHOLD
        # One row-major pass lists every reduce spike as (neuron, batch
        # row); a column-wise sum or argmax would stride across rows.
        neuron, row = np.divmod(np.flatnonzero(red_fire), len(s))
        counts = np.bincount(row, minlength=len(s))
        if (counts != 1).any():
            bad = int(np.flatnonzero(counts != 1)[0])
            raise AssertionError(
                f"reduce layer of {self.name!r} produced {counts[bad]} winners "
                f"for input bins {bins[bad].tolist()}"
            )
        # Exactly one spike per row, so the scatter fills every row once.
        winners = np.empty(len(s), dtype=np.intp)
        winners[row] = neuron
        return winners, agg[:pc].T, agg[pc:-1].T, red_fire.T

    def eval_all_pairs(self):
        """Spiking evaluation of every input-bin combination: an array of
        output bins shaped by the input sizes.  The potentials of all
        combinations are the weight rows summed left to right by
        broadcasting, the adds potentials makes in the same order.  Rows
        of one firing_class fire every neuron alike, so eval_bins runs
        once, on each class's first row in row-major order (a reduce
        error names the row a row-by-row pass would), and its winner
        stands for the rest; input-bin rows are built for those
        representatives only."""
        sizes = [spec.grid.n for spec in self.inputs]
        s = self._weight_arrs[0]
        for w in self._weight_arrs[1:]:
            s = s[..., None] + w
        key = self.firing_class(s.ravel())
        del s  # keyed: free the N^2 potentials before the scatter
        # minimum is order-free, so the representative does not depend on
        # the order of the scatter; absent classes keep len(key).
        first = np.full(self.pos_count + self.neg_count + 1, len(key))
        np.minimum.at(first, key, np.arange(len(key)))
        reps = np.sort(first[first < len(key)])
        winners = np.empty(len(first), dtype=np.intp)
        rows = np.stack(np.unravel_index(reps, sizes), axis=1)
        winners[key[reps]] = self.eval_bins(rows)[0]
        return winners[key].reshape(sizes)

    # -- netlist pieces ----------------------------------------------------

    def neuron_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(id, layer, threshold) arrays of this unit's neurons in file
        order: aggregate-pos, aggregate-neg, then reduce."""
        counts = (self.pos_count, self.neg_count, self.n_out)
        ids = np.array([f"{self.name}.{kind}[{k}]" for kind, count in
                        zip(("agg_pos", "agg_neg", "reduce"), counts)
                        for k in range(count)])
        layers = np.repeat([LAYER_AGG_POS, LAYER_AGG_NEG, LAYER_REDUCE], counts)
        return ids, layers, np.array([*self.thr_pos, *self.thr_neg]
                                     + [REDUCE_THRESHOLD] * self.n_out)

    def _reduce_wiring(self) -> np.ndarray:
        """One row per reduce neuron: its exc1, exc2, inh1 and inh2
        aggregate sources (-1: no synapse)."""
        return np.stack([self._exc1, self._exc2, self._inh1, self._inh2], axis=1)

    @property
    def synapse_count(self) -> int:
        """The rows synapse_columns writes: every input bin into every
        aggregate neuron, then each wired reduce source."""
        bins = sum(spec.grid.n for spec in self.inputs)
        return (bins * (self.pos_count + self.neg_count)
                + int(np.count_nonzero(self._reduce_wiring() >= 0)))

    def synapse_columns(self, first, sources, delays, out) -> None:
        """Write this unit's synapses, in file order, into out: the
        (src, dst, weight, delay) column views of its synapse_count rows,
        in the netlist's dtypes.  first is the index of this unit's first
        neuron; sources[p][i] is the neuron index of bin i of input
        population p, and delays[p] the tick delay of that population's
        edges.  Each input neuron drives every aggregate neuron (pos, then
        neg), written as one bins x aggregates block per port; each reduce
        neuron then gets its excitatory, then inhibitory, sources."""
        src, dst, weight, delay = out
        agg = self.pos_count + self.neg_count
        targets = np.arange(first, first + agg)
        sign = np.repeat([1, -1], [self.pos_count, self.neg_count])  # exact negation
        k = 0
        for w, s, d in zip(self._weight_arrs, sources, delays):
            rows, block = slice(k, k + len(s) * agg), (len(s), agg)
            src[rows].reshape(block)[...] = s[:, None]
            dst[rows].reshape(block)[...] = targets
            np.multiply.outer(w, sign, out=weight[rows].reshape(block))
            delay[rows] = d
            k = rows.stop
        wiring = self._reduce_wiring()
        wired = wiring >= 0
        src[k:] = first + wiring[wired]
        dst[k:] = np.repeat(np.arange(first + agg, first + agg + self.n_out),
                            wired.sum(axis=1))
        weight[k:] = np.broadcast_to([REDUCE_EXC, REDUCE_EXC, REDUCE_INH, REDUCE_INH],
                                     wiring.shape)[wired]
        delay[k:] = 0


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
    # A magnitude threshold at 0.0 (nearest mode, when the magnitude next
    # to zero halves to 0.0) would fire on a zero sum and win over zero.
    t = min(thr_pos[1:] + thr_neg[1:], default=1.0)
    if not t > 0:
        raise ValueError(
            f"{mode} threshold {t!r} of the output grid [{output.lo!r}, "
            f"{output.hi!r}] (n={output.n}, {output.distribution}) is not "
            f"> 0, so a zero sum would not win the zero bin (the values "
            f"next to 0 lie too close to it)")
    return thr_pos, thr_neg


def build_adder(inputs, output: ValueGrid, mode: str = MODE_NEAREST,
                quantized: bool = False, name: str = "adder") -> AdderUnit:
    """Build an adder unit over the given input populations.

    inputs: sequence of (grid, sign, gain) tuples, one per population,
    kept as the unit's InputSpecs.  The output grid must contain the
    exact value 0 -- the positive and negative aggregate sub-populations
    split there.
    """
    specs = [InputSpec(grid, sign, gain) for grid, sign, gain in inputs]
    if not specs:
        raise ValueError("adder needs at least one input population")
    if output.n == 0:
        raise ValueError("output grid is empty")
    if output.zero_index is None:
        raise ValueError(
            "adder output grid must contain the value 0 "
            "(the aggregate layer splits into >=0 and <=0 sub-populations)"
        )
    for p, spec in enumerate(specs):
        if spec.sign not in (1, -1):
            raise ValueError(f"input sign must be +1 or -1, got {spec.sign}")
        # A NaN or infinite weight makes every sum through the port NaN or
        # infinite, which no threshold ladder bins.  Python floats
        # overflow to inf without a warning.
        if not math.isfinite(spec.gain * max(abs(spec.grid.lo), abs(spec.grid.hi))):
            raise ValueError(f"input {p} of adder {name!r}: gain {spec.gain!r} "
                             "must give finite weights")

    float_weights = []
    for spec in specs:
        row = spec.gain * np.asarray(spec.grid.values)
        float_weights.append(row if spec.sign > 0 else -row)

    thr_pos_f, thr_neg_f = _aggregate_thresholds(output, mode)

    if quantized:
        scale = choose_scale(np.concatenate(float_weights))
        weights = [quantize_weight(row, scale).tolist() for row in float_weights]

        def magnitudes(ladder):
            # Non-zero thresholds clamp to >= 1 so no magnitude neuron can
            # fire on a zero sum after rounding (rounding is monotone, so
            # the ladders stay sorted and the prefix-firing property
            # survives).  int() of each float keeps them exact at any size.
            return [int(t) for t in np.maximum(
                1, round_half_away(np.array(ladder[1:]) * scale)).tolist()]

        thr_pos = [0] + magnitudes(thr_pos_f)
        thr_neg = [1] + magnitudes(thr_neg_f)  # epsilon: strictly-negative detector
    else:
        scale = 1.0
        weights = [row.tolist() for row in float_weights]
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
