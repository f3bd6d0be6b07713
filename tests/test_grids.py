"""Value-grid construction and encoding."""

import math

import pytest
from hypothesis import given, strategies as st

from spikepid.grids import encode, make_grid


class TestMakeGrid:
    def test_uniform_spacing(self):
        g = make_grid(0, 4, 15)
        # values[i] = i * (hi - lo) / (n - 1)
        assert g.values[5] == pytest.approx(5 * 4 / 14)
        assert g.values[0] == 0.0
        assert g.values[14] == 4.0

    def test_quadratic_symmetric_midpoint_and_endpoint(self):
        g = make_grid(-1.25, 1.25, 15, "quadratic")
        assert g.values[7] == 0.0
        assert g.values[14] == 1.25
        assert g.values[0] == -1.25

    def test_quadratic_values_follow_signed_square(self):
        g = make_grid(-1.25, 1.25, 15, "quadratic")
        # u spaced sqrt(1.25)*2/14 apart; values[8] = u_1^2
        u = 2 * math.sqrt(1.25) / 14
        assert g.values[8] == pytest.approx(u * u)
        assert g.values[8] == pytest.approx(0.02551, abs=1e-5)

    def test_strictly_increasing_and_endpoints(self):
        for dist in ("uniform", "quadratic"):
            g = make_grid(-2, 2, 21, dist)
            assert all(a < b for a, b in zip(g.values, g.values[1:]))
            assert g.values[0] == g.lo and g.values[-1] == g.hi

    def test_symmetric_odd_contains_exact_zero(self):
        for dist in ("uniform", "quadratic"):
            for n in (3, 15, 151):
                g = make_grid(-1.25, 1.25, n, dist)
                assert 0.0 in g.values
                assert g.zero_index == n // 2

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            make_grid(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            make_grid(2.0, -2.0, 5)

    def test_too_few_values_rejected(self):
        with pytest.raises(ValueError):
            make_grid(0, 1, 1)

    def test_quadratic_requires_symmetric_range(self):
        with pytest.raises(ValueError):
            make_grid(0, 4, 15, "quadratic")

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            make_grid(0, 1, 5, "gaussian")

    def test_quadratic_central_gap_smaller_than_uniform(self):
        g = make_grid(-1.25, 1.25, 15, "quadratic")
        central = g.values[8] - g.values[7]
        uniform_gap = 2.5 / 14
        assert central == pytest.approx(0.0255, abs=2e-4)
        assert central < uniform_gap


class TestEncode:
    def test_nearest_bin(self):
        g = make_grid(0, 4, 15)
        # 1.5 sits 0.0714 from values[5] and 0.2143 from values[6]
        assert encode(g, 1.5) == 5

    def test_exact_member_maps_to_itself(self):
        g = make_grid(-1.25, 1.25, 15, "quadratic")
        for i, v in enumerate(g.values):
            assert encode(g, v) == i

    def test_zero_maps_to_zero_bin(self):
        for dist in ("uniform", "quadratic"):
            g = make_grid(-2, 2, 11, dist)
            assert encode(g, 0.0) == g.zero_index

    def test_clamps_out_of_range(self):
        g = make_grid(0, 4, 15)
        assert encode(g, -3.0) == 0
        assert encode(g, 99.0) == 14

    def test_tie_breaks_toward_lower_index(self):
        g = make_grid(0.0, 2.0, 3)  # values 0, 1, 2; midpoints 0.5, 1.5
        assert encode(g, 0.5) == 0
        assert encode(g, 1.5) == 1

    def test_nan_rejected(self):
        g = make_grid(0, 1, 3)
        with pytest.raises(ValueError):
            encode(g, float("nan"))

    def test_round_trip_on_members(self):
        g = make_grid(-1, 1, 7, "quadratic")
        for v in g.values:
            assert g.values[encode(g, v)] == v


@st.composite
def grids(draw):
    hi = draw(st.floats(min_value=0.1, max_value=100, allow_nan=False))
    n = draw(st.integers(min_value=3, max_value=101))
    dist = draw(st.sampled_from(["uniform", "quadratic"]))
    if dist == "quadratic" and n % 2 == 0:
        n += 1
    return make_grid(-hi, hi, n, dist)


class TestProperties:
    @given(grids(), st.floats(min_value=-1.0, max_value=1.0))
    def test_round_trip_error_bounded_by_half_largest_gap(self, g, frac):
        x = frac * g.hi
        err = abs(g.values[encode(g, x)] - x)
        assert err <= max(g.gaps()) / 2 + 1e-12

    @given(grids(), st.lists(st.floats(min_value=-2.0, max_value=2.0),
                             min_size=2, max_size=20))
    def test_encode_is_monotone(self, g, xs):
        xs = sorted(x * g.hi for x in xs)
        bins = [encode(g, x) for x in xs]
        assert all(a <= b for a, b in zip(bins, bins[1:]))

    @given(grids(), st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e6, max_value=1e6))
    def test_exactly_one_bin_for_any_input(self, g, x):
        b = encode(g, x)
        assert 0 <= b < g.n
