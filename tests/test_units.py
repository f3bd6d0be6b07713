"""Spiking adder units: construction, propagation, quantization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikepid.controller import build_npid, default_config
from spikepid.grids import make_grid
from spikepid.harness import step_experiment
from spikepid.reference import _StageModel, round_to_grid
from spikepid.units import (
    AdderUnit,
    build_adder,
    choose_scale,
    eval_unit,
    one_hot,
    quantize_weight,
    round_half_away,
)


@pytest.fixture
def fig2_unit():
    """Two inputs over [-1, 0, 1], output [-2..2], magnitude thresholds."""
    g_in = make_grid(-1, 1, 3)
    g_out = make_grid(-2, 2, 5)
    return build_adder([(g_in, 1, 1.0), (g_in, 1, 1.0)], g_out, mode="floor")


class TestQuantizeWeight:
    def test_full_scale(self):
        assert quantize_weight(1.0, 254) == 254

    def test_zero(self):
        for scale in (1, 100, 254):
            assert quantize_weight(0.0, scale) == 0

    def test_tie_rounds_away_from_zero(self):
        # 0.5 * 254 = 127, equidistant from 126 and 128
        assert quantize_weight(0.5, 254) == 128
        assert quantize_weight(-0.5, 254) == -128
        # 2.5 * 2 / 2 = 2.5: Python's and numpy's round, half to even,
        # would give 2 and so 4.
        assert quantize_weight(2.5, 2) == 6
        assert quantize_weight(-2.5, 2) == -6

    def test_array_equals_scalar_rule(self):
        """The array forms give, element by element, what the scalar
        forms give: exact ties, both clamps and signed zeros included."""
        x = np.array([0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49, -0.51, 0.0, -0.0,
                      127.0, -128.0, 127.5, -128.5, 300.0, -300.0, 3.3, -7.9])
        assert round_half_away(x).tolist() == [round_half_away(float(v)) for v in x]
        q = quantize_weight(x, 2)
        assert q.dtype == np.int64
        assert q.tolist() == [quantize_weight(float(v), 2) for v in x]
        assert {254, -256} <= set(q.tolist())  # both clamps reached

    def test_clamps_to_representable_range(self):
        assert quantize_weight(10.0, 254) == 254
        assert quantize_weight(-10.0, 254) == -256

    def test_always_even(self):
        for w in np.linspace(-1.3, 1.3, 57):
            assert quantize_weight(float(w), 203) % 2 == 0


class TestChooseScale:
    def test_fractional_max(self):
        # 203 * 1.25 = 253.75 <= 254 but 204 * 1.25 = 255 > 254
        assert choose_scale([1.25, -0.3]) == 203

    def test_at_bound(self):
        assert choose_scale([254.0]) == 1

    def test_half(self):
        assert choose_scale([0.5, 0.25]) == 508

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            choose_scale([0.0, 0.0])

    def test_oversized_weight_rejected(self):
        with pytest.raises(ValueError):
            choose_scale([500.0])


class TestBuildAdder:
    def test_fig2_neuron_count(self, fig2_unit):
        # 6 aggregate (duplicated zero) + 5 reduce
        assert fig2_unit.pos_count == 3
        assert fig2_unit.neg_count == 3
        assert fig2_unit.neuron_count == 11

    def test_count_is_2n_plus_1(self):
        for n in (5, 15, 63):
            g = make_grid(-1, 1, n)
            u = build_adder([(g, 1, 1.0)], g)
            assert u.neuron_count == 2 * n + 1

    def test_weights_proportional_to_gain_times_value(self):
        gains = (0.87, 5.1176, 2.4012)
        g = make_grid(-1.25, 1.25, 9, "quadratic")
        out = make_grid(-4, 4, 17)
        u = build_adder([(g, 1, k) for k in gains], out)
        for p, k in enumerate(gains):
            for i, v in enumerate(g.values):
                assert u.weights[p][i] == k * v

    @pytest.mark.parametrize("mode,thr", [("floor", [1, 1, 2, 3]),
                                          ("nearest", [1, 1, 2, 2])])
    def test_quantized_ladders_follow_the_scalar_rule(self, mode, thr):
        """At scale 256 (max|w| = 254/256) every product below is exact:
        floor thresholds x256 are 0.625, 1.25, 1.875 and the tie 2.5;
        nearest ones 0.3125 (clamped up to 1), 0.9375, 1.5625, 2.1875.
        The second input's weight 3/256 x128 is the tie 1.5.  The
        oracle's stage model quantizes with the scalar rules."""
        g = make_grid(-1, 1, 3)
        out = make_grid(-5 / 512, 5 / 512, 9)
        u = build_adder([(g, 1, 254 / 256), (g, -1, 3 / 256)], out,
                        mode=mode, quantized=True)
        assert u.scale == 256
        assert u.weights == [[-254, 0, 254], [4, 0, -4]]
        assert u.thr_pos == [0] + thr and u.thr_neg == [1] + thr
        stage = _StageModel([[254 / 256 * v for v in g.values],
                             [-(3 / 256 * v) for v in g.values]], out, mode, True)
        assert stage.tables == u.weights
        assert stage.points == sorted(thr + [1 - t for t in thr])
        assert all(type(t) is int for t in u.thr_pos + u.thr_neg)

    def test_subtraction_flips_weight_sign(self):
        g = make_grid(-1, 1, 5)
        u = build_adder([(g, -1, 1.0)], g)
        for i, v in enumerate(g.values):
            assert u.weights[0][i] == -v

    def test_empty_inputs_rejected(self):
        g = make_grid(-1, 1, 3)
        with pytest.raises(ValueError):
            build_adder([], g)

    def test_output_without_zero_rejected(self):
        g = make_grid(-1, 1, 3)
        bad_out = make_grid(1, 3, 3)
        with pytest.raises(ValueError):
            build_adder([(g, 1, 1.0)], bad_out)
        # Nearest mode halves 5e-324 to a 0.0 threshold, which a zero sum
        # would reach, so zero would not win.
        tiny = make_grid(-5e-324, 5e-324, 3)
        for quantized in (False, True):
            with pytest.raises(ValueError, match=r"^nearest threshold 0\.0 of the "
                                                 r"output grid \[-5e-324, 5e-324\]"):
                build_adder([(tiny, 1, 1.0)], tiny, quantized=quantized)

    @pytest.mark.parametrize("gain", [float("nan"), float("inf"), -float("inf"), 1e308])
    def test_non_finite_weights_rejected_naming_the_port(self, gain):
        """A NaN or infinite gain, or one that overflows a weight (1e308
        times the grid's 2.0), would make every sum through the port
        non-finite; the error names the port."""
        g = make_grid(-1, 1, 3)
        with pytest.raises(ValueError, match=r"^input 1 of adder 'sum': gain "):
            build_adder([(g, 1, 1.0), (make_grid(-2, 2, 5), 1, gain)], make_grid(-2, 2, 5),
                        name="sum")

    def test_bad_sign_rejected(self):
        g = make_grid(-1, 1, 3)
        with pytest.raises(ValueError):
            build_adder([(g, 2, 1.0)], g)


class TestEvalUnit:
    def test_fig2_one_plus_one(self, fig2_unit):
        """Adding 1 and 1: all positive aggregate neurons (thresholds
        0, 1, 2) fire and the reduce winner is the value 2."""
        out, agg = eval_unit(fig2_unit, [one_hot(3, 2), one_hot(3, 2)])
        assert list(np.flatnonzero(out)) == [4]  # value 2
        assert fig2_unit.thr_pos == [0.0, 1.0, 2.0]
        assert list(agg[:3]) == [True, True, True]  # whole pos group
        assert not agg[3:].any()  # neg group silent

    def test_zero_plus_zero(self, fig2_unit):
        out, _ = eval_unit(fig2_unit, [one_hot(3, 1), one_hot(3, 1)])
        assert np.flatnonzero(out)[0] == 2  # value 0

    def test_exhaustive_pairs_match_clamped_sum(self, fig2_unit):
        g_in = make_grid(-1, 1, 3)
        g_out = make_grid(-2, 2, 5)
        for i in range(3):
            for j in range(3):
                out, _ = eval_unit(fig2_unit, [one_hot(3, i), one_hot(3, j)])
                s = g_in.values[i] + g_in.values[j]
                assert g_out.values[int(np.flatnonzero(out)[0])] == s

    def test_negator(self):
        g = make_grid(-1, 1, 5)
        u = build_adder([(g, -1, 1.0)], g)
        for i, v in enumerate(g.values):
            out, _ = eval_unit(u, [one_hot(5, i)])
            assert g.values[int(np.flatnonzero(out)[0])] == -v

    def test_non_one_hot_rejected(self, fig2_unit):
        with pytest.raises(ValueError):
            eval_unit(fig2_unit, [np.array([1, 1, 0]), one_hot(3, 0)])
        with pytest.raises(ValueError):
            eval_unit(fig2_unit, [np.zeros(3), one_hot(3, 0)])
        with pytest.raises(ValueError):
            eval_unit(fig2_unit, [one_hot(3, 0)])

    @pytest.mark.parametrize("mode", ["floor", "nearest"])
    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("n,dist,sign,gain", [
        (21, "quadratic", -1, 0.7),
        (15, "uniform", 1, 1.0), (15, "quadratic", 1, 1.0),
        (63, "uniform", 1, 1.0), (63, "quadratic", 1, 1.0)])
    def test_fast_path_equals_literal_propagation(self, n, dist, sign, gain, mode,
                                                  quantized):
        """winner_bin equals the literal propagation on every pair of a
        subtracting adder and of verify_adder's canonical adder (two equal
        inputs on [-1.25, 1.25] into 2n - 1 outputs), whose floor-mode
        sums land exactly on thresholds of both signs."""
        g = make_grid(-1.25, 1.25, n, dist)
        out = make_grid(-2.5, 2.5, 2 * n - 1, dist)
        u = build_adder([(g, 1, 1.0), (g, sign, gain)], out,
                        mode=mode, quantized=quantized)
        fast = [[u.winner_bin(i, j) for j in range(n)] for i in range(n)]
        assert fast == u.eval_all_pairs().tolist()

    @pytest.mark.parametrize("mode", ["floor", "nearest"])
    @pytest.mark.parametrize("quantized", [False, True])
    def test_three_input_batch_equals_fast_path(self, mode, quantized):
        """A control-unit-shaped adder (error, integral and derivative
        inputs with the stock gains): batched winners equal winner_bin
        row by row, and every row fires a prefix of one sub-population."""
        err = make_grid(-4, 4, 9)
        integ = make_grid(-0.25, 0.25, 9, "quadratic")
        deriv = make_grid(-0.5, 0.5, 9)
        out = make_grid(-1.25, 1.25, 9)
        u = build_adder([(err, 1, 0.87), (integ, 1, 0.87 / 0.17),
                         (deriv, 1, 0.87 * 2.76)], out,
                        mode=mode, quantized=quantized, name="control")
        bins = np.indices((9, 9, 9)).reshape(3, -1).T
        winners, pos, neg, red = u.eval_bins(bins)
        assert winners.shape == (729,)
        assert pos.shape == (729, u.pos_count)
        assert neg.shape == (729, u.neg_count)
        assert red.shape == (729, u.n_out)
        for row, b in zip(bins.tolist(), winners.tolist()):
            assert u.winner_bin(*row) == b
        assert (red.sum(axis=1) == 1).all()
        assert (red.argmax(axis=1) == winners).all()
        for mask in (pos, neg):
            count = mask.sum(axis=1)
            assert (mask == (np.arange(mask.shape[1]) < count[:, None])).all()

    def test_empty_batch(self, fig2_unit):
        winners, pos, neg, red = fig2_unit.eval_bins(np.zeros((0, 2), dtype=np.intp))
        assert winners.shape == (0,) and winners.dtype == np.intp
        assert pos.shape == (0, 3) and neg.shape == (0, 3) and red.shape == (0, 5)

    def test_cut_inhibition_names_first_row_with_extra_winners(self, fig2_unit):
        """Without the inhibitory synapses every firing positive aggregate
        neuron fires its reduce neuron: 0 + 0 still has one winner, but
        1 + 1 has three (values 0, 1 and 2) and 1 + 0 two."""
        fig2_unit._inh1[:] = -1
        with pytest.raises(AssertionError,
                           match=r"^reduce layer of 'adder' produced 3 winners "
                                 r"for input bins \[2, 2\]$"):
            fig2_unit.eval_bins([[1, 1], [2, 2], [2, 1]])

    def test_cut_excitation_names_first_row_without_winner(self, fig2_unit):
        """Cutting the excitation of the positive non-zero reduce neurons
        leaves 0 + 0 with its zero winner and 1 + 0 with none (its zero
        neuron is still inhibited by aggregate-pos 1)."""
        fig2_unit._exc1[fig2_unit.zero_index + 1:] = -1
        with pytest.raises(AssertionError,
                           match=r"^reduce layer of 'adder' produced 0 winners "
                                 r"for input bins \[2, 1\]$"):
            fig2_unit.eval_bins([[1, 1], [0, 0], [2, 1], [2, 2]])

    def test_cut_zero_inhibition_names_first_negative_row(self, fig2_unit):
        """Only the zero reduce neuron has a second inhibitory source
        (aggregate-neg 1), and eval_bins reads that wiring at call time:
        cut, a sum of -1 fires both the zero and the -1 neuron."""
        z = fig2_unit.zero_index
        assert (fig2_unit._inh2 >= 0).tolist() == [k == z for k in range(5)]
        fig2_unit._inh2[z] = -1
        with pytest.raises(AssertionError,
                           match=r"^reduce layer of 'adder' produced 2 winners "
                                 r"for input bins \[1, 0\]$"):
            fig2_unit.eval_bins([[1, 1], [2, 0], [1, 0], [0, 0]])


def _oracle_check(n, dist, mode, quantized, tol):
    g_in = make_grid(-1.25, 1.25, n, dist)
    g_out = make_grid(-2.5, 2.5, 2 * n - 1, dist)
    u = build_adder([(g_in, 1, 1.0), (g_in, 1, 1.0)], g_out,
                    mode=mode, quantized=quantized)
    got = u.eval_all_pairs()
    for i in range(n):
        for j in range(n):
            want = round_to_grid(g_out, g_in.values[i] + g_in.values[j], mode)
            assert abs(int(got[i, j]) - want) <= tol, (i, j, got[i, j], want)


class TestOracleEquivalence:
    @pytest.mark.parametrize("dist", ["uniform", "quadratic"])
    @pytest.mark.parametrize("mode", ["floor", "nearest"])
    def test_float_exact(self, dist, mode):
        _oracle_check(15, dist, mode, quantized=False, tol=0)

    @pytest.mark.parametrize("mode", ["floor", "nearest"])
    def test_quantized_within_one_bin(self, mode):
        _oracle_check(15, "uniform", mode, quantized=True, tol=1)
        _oracle_check(15, "quadratic", mode, quantized=True, tol=1)


def _one_and_two_input_units():
    g = make_grid(-1.25, 1.25, 15, "quadratic")
    out = make_grid(-2.5, 2.5, 29, "quadratic")
    return [build_adder([(g, -1, 0.8)], out, name="one"),
            build_adder([(g, -1, 1.0), (g, -1, 1.0)], out, name="negated"),
            build_adder([(g, -1, 1.0), (g, -1, 1.0)], out, quantized=True,
                        name="negated-q")]


# 1-, 2- and 3-input units: small hand-built ones (two with both inputs
# negated) and the three units of two controllers.
EXHAUSTIVE_UNITS = {
    "small": _one_and_two_input_units,
    "npid-n15": lambda: build_npid(default_config(n=15)).units,
    "npid-n63-quadratic-quantized": lambda: build_npid(step_experiment(
        n=63, distribution="quadratic", quantized=True).npid).units,
}


def _all_rows(unit):
    sizes = [spec.grid.n for spec in unit.inputs]
    return np.indices(sizes).reshape(len(sizes), -1).T


@pytest.mark.parametrize("units", EXHAUSTIVE_UNITS.values(), ids=EXHAUSTIVE_UNITS)
class TestEvalAllPairs:
    def test_equals_eval_bins_on_every_row(self, units):
        for unit in units():
            got = unit.eval_all_pairs()
            assert got.shape == tuple(spec.grid.n for spec in unit.inputs)
            assert np.array_equal(got.ravel(), unit.eval_bins(_all_rows(unit))[0])

    def test_one_eval_bins_call_per_class(self, units, monkeypatch):
        batches = []
        literal = AdderUnit.eval_bins
        monkeypatch.setattr(
            AdderUnit, "eval_bins",
            lambda self, bins: batches.append(len(bins)) or literal(self, bins))
        for unit in units():
            batches.clear()
            unit.eval_all_pairs()
            assert len(batches) == 1
            assert batches[0] <= unit.pos_count + unit.neg_count + 1

    def test_classes_are_the_aggregate_firing_patterns(self, units):
        """firing_class stays in [0, pos_count + neg_count] and two rows
        share a class exactly when every aggregate neuron fires alike."""
        for unit in units():
            rows = _all_rows(unit)
            key = unit.firing_class(unit.potentials(rows))
            top = unit.pos_count + unit.neg_count
            assert 0 <= key.min() and key.max() <= top
            assert unit.firing_class(np.array([-np.inf, np.inf])).tolist() == [0, top]
            _, pos, neg, _ = unit.eval_bins(rows)
            masks = np.concatenate([pos, neg], axis=1)
            classes, first, cls = np.unique(key, return_index=True, return_inverse=True)
            assert (masks == masks[first[cls]]).all()
            assert len(np.unique(masks[first], axis=0)) == len(classes)


def test_negated_zero_row_sums_to_negative_zero():
    """Both inputs negated: the zero row's potential is -0.0, which fires
    the pos zero neuron and not the neg one, as +0.0 does."""
    unit = _one_and_two_input_units()[1]
    z = unit.inputs[0].grid.zero_index
    s = unit.potentials([[z, z]])
    assert s[0] == 0 and math.copysign(1.0, s[0]) < 0
    assert unit.firing_class(s) == unit.firing_class(np.array([0.0]))
    assert unit.eval_all_pairs()[z, z] == unit.zero_index


def test_eval_all_pairs_names_the_first_bad_row():
    """With two thr_pos entries swapped, eval_all_pairs raises the error
    eval_bins raises on every row in row-major order, row for row."""
    g = make_grid(-1.25, 1.25, 15)
    u = build_adder([(g, 1, 1.0), (g, 1, 1.0)], make_grid(-2.5, 2.5, 29))
    thr_pos = list(u.thr_pos)
    thr_pos[3], thr_pos[4] = thr_pos[4], thr_pos[3]
    u = AdderUnit(u.name, u.inputs, u.output, u.mode, u.quantized, u.scale,
                  u.weights, thr_pos, u.thr_neg)
    with pytest.raises(AssertionError, match="produced 2 winners") as literal:
        u.eval_bins(_all_rows(u))
    with pytest.raises(AssertionError) as exhaustive:
        u.eval_all_pairs()
    assert str(exhaustive.value) == str(literal.value)


class TestStructuralProperties:
    @given(st.integers(min_value=3, max_value=25),
           st.sampled_from(["floor", "nearest"]),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_winner_unique_and_clamped(self, n, mode, quantized):
        if n % 2 == 0:
            n += 1
        g = make_grid(-1, 1, n, "quadratic")
        out = make_grid(-1, 1, n, "quadratic")  # narrower than the sum range
        u = build_adder([(g, 1, 1.0), (g, 1, 1.0)], out,
                        mode=mode, quantized=quantized)
        bins = u.eval_all_pairs()  # raises if any winner is not unique
        assert bins.min() >= 0 and bins.max() <= n - 1
        # saturation: the extreme sums land on the extreme bins
        assert bins[n - 1, n - 1] == n - 1
        assert bins[0, 0] == 0

    @given(st.integers(min_value=3, max_value=21),
           st.sampled_from(["uniform", "quadratic"]))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_each_input(self, n, dist):
        if n % 2 == 0:
            n += 1
        g = make_grid(-1, 1, n, dist)
        out = make_grid(-2, 2, 2 * n - 1, dist)
        u = build_adder([(g, 1, 1.0), (g, 1, 1.0)], out)
        bins = u.eval_all_pairs()
        assert (np.diff(bins, axis=0) >= 0).all()
        assert (np.diff(bins, axis=1) >= 0).all()

    def test_determinism(self, fig2_unit):
        runs = [eval_unit(fig2_unit, [one_hot(3, 2), one_hot(3, 0)])
                for _ in range(5)]
        for out, agg in runs[1:]:
            assert (out == runs[0][0]).all()
            assert (agg == runs[0][1]).all()

    def test_quantized_weights_legal(self):
        g = make_grid(-1.25, 1.25, 31, "quadratic")
        u = build_adder([(g, 1, 0.87), (g, -1, 5.1176)], g,
                        quantized=True)
        for row in u.weights:
            for w in row:
                assert isinstance(w, int)
                assert -256 <= w <= 254
                assert w % 2 == 0
