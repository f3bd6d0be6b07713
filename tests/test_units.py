"""Spiking adder units: construction, propagation, quantization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spikepid.grids import make_grid
from spikepid.reference import round_to_grid
from spikepid.units import (
    build_adder,
    choose_scale,
    eval_unit,
    one_hot,
    quantize_weight,
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

    def test_fast_path_equals_literal_propagation(self):
        g = make_grid(-1.25, 1.25, 21, "quadratic")
        out = make_grid(-2.5, 2.5, 41, "quadratic")
        pairs = np.indices((21, 21)).reshape(2, -1).T
        for mode in ("floor", "nearest"):
            for quantized in (False, True):
                u = build_adder([(g, 1, 1.0), (g, -1, 0.7)], out,
                                mode=mode, quantized=quantized)
                lit, _, _, _ = u.eval_bins(pairs)
                for (i, j), b in zip(pairs.tolist(), lit.tolist()):
                    assert u.winner_bin(i, j) == b

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
