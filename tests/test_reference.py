"""Conventional PID and the bin-level arithmetic oracle."""

import numpy as np
import pytest

from spikepid.controller import build_npid, default_config
from spikepid.grids import make_grid
from spikepid.reference import (
    PidGains,
    PidOracle,
    PidState,
    QuantPidState,
    pid_step,
    round_to_grid,
)

GAINS = PidGains()  # kp=0.87, ti=0.17, td=2.76
DT = 1.0 / 70.0


class TestPidGains:
    def test_derived_gains(self):
        assert GAINS.ki == pytest.approx(0.87 / 0.17)
        assert GAINS.kd == pytest.approx(0.87 * 2.76)

    @pytest.mark.parametrize("field, value", [
        ("kp", 0.0), ("kp", -1.0), ("kp", float("nan")), ("kp", float("inf")),
        ("ti", 0.0), ("ti", -0.17), ("ti", float("nan")),
        ("td", -0.5), ("td", float("nan")), ("td", float("inf")),
    ])
    def test_bad_gain_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"PidGains.{field} "):
            PidGains(**{field: value})

    @pytest.mark.parametrize("quantized", [False, True])
    def test_zero_td_builds_a_pi_controller(self, quantized):
        net = build_npid(default_config(n=15, quantized=quantized,
                                        gains=PidGains(td=0.0)))
        first = net.step(1.5, 0.5, 0.2)
        net.reset()
        assert net.step(1.5, 0.5, -0.4) == first  # the derivative has no weight


class TestPidStep:
    def test_zero_error_zero_output(self):
        st = PidState()
        for _ in range(50):
            assert pid_step(st, 2.0, 2.0, DT, GAINS) == 0.0

    def test_first_step_example(self):
        # e=1.5, i=1.5/70, d=0 (seeded): u = 1.305 + 5.11765 * 0.0214286
        st = PidState()
        u = pid_step(st, 1.5, 0.0, DT, GAINS)
        assert u == pytest.approx(1.414664, abs=1e-5)
        u_clamped = pid_step(PidState(), 1.5, 0.0, DT, GAINS,
                             clamp=(-1.25, 1.25))
        assert u_clamped == 1.25

    def test_no_derivative_kick_on_first_step(self):
        st = PidState()
        pid_step(st, 1.5, 0.0, DT, GAINS)
        assert st.prev_error == 1.5  # seeded, so d was 0

    def test_constant_error_grows_linearly(self):
        st = PidState()
        eps = 0.01
        us = [pid_step(st, eps, 0.0, DT, GAINS) for _ in range(100)]
        diffs = np.diff(us[1:])  # after the first tick d stays 0
        assert np.allclose(diffs, GAINS.ki * eps * DT)

    def test_decay_reduces_to_plain_form_at_one(self):
        st = PidState()
        for k in range(10):
            pid_step(st, 1.0, 0.0, DT, GAINS, lam=1.0)
        assert st.integral == pytest.approx(10 * DT)

    def test_external_derivative_override(self):
        st = PidState()
        u = pid_step(st, 0.0, 0.0, DT, GAINS, derivative=0.5)
        assert u == pytest.approx(GAINS.kd * 0.5)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            pid_step(PidState(), 1, 0, 0.0, GAINS)


class TestRoundToGrid:
    def test_floor_truncates_toward_zero(self):
        g = make_grid(-2, 2, 5)
        assert round_to_grid(g, 0.9, "floor") == 2   # 0
        assert round_to_grid(g, 1.0, "floor") == 3   # exactly 1
        assert round_to_grid(g, -0.9, "floor") == 2  # 0
        assert round_to_grid(g, -1.2, "floor") == 1  # -1

    def test_nearest_ties_away_from_zero(self):
        g = make_grid(-2, 2, 5)
        assert round_to_grid(g, 0.5, "nearest") == 3
        assert round_to_grid(g, -0.5, "nearest") == 1
        assert round_to_grid(g, 0.49, "nearest") == 2

    def test_clamps(self):
        g = make_grid(-2, 2, 5)
        assert round_to_grid(g, 7.0, "nearest") == 4
        assert round_to_grid(g, -7.0, "floor") == 0

    def test_requires_zero_on_grid(self):
        g = make_grid(1, 3, 3)
        with pytest.raises(ValueError):
            round_to_grid(g, 1.5)

    @pytest.mark.parametrize("mode", ["floor", "nearest"])
    @pytest.mark.parametrize("dist", ["uniform", "quadratic"])
    def test_array_equals_scalar_calls(self, mode, dist):
        """The array form applies the scalar rule elementwise, on exact
        boundaries, out-of-range values and signed zero too."""
        g = make_grid(-2, 2, 9, dist)
        vals = np.asarray(g.values)
        mids = (vals[1:] + vals[:-1]) / 2
        x = np.concatenate([vals, mids, np.nextafter(vals, 0), np.nextafter(mids, 0),
                            [-0.0, 0.0, 2.5, -2.5, 1e9, -1e9, np.inf, -np.inf]])
        got = round_to_grid(g, x, mode)
        assert got.dtype == np.int64
        assert got.tolist() == [round_to_grid(g, v, mode) for v in x.tolist()]
        assert round_to_grid(g, np.array([-0.0]), mode)[0] == g.zero_index


class TestOracle:
    def test_all_zero_inputs_zero_bin(self):
        cfg = default_config(n=15)
        grids = cfg.build_grids()
        st = QuantPidState(integral_bin=grids.integral.zero_index)
        out = PidOracle(grids, GAINS, DT).step(st, 0.0, 0.0, 0.0)
        assert out == grids.output.zero_index
        assert st.integral_bin == grids.integral.zero_index

    def test_single_tick_saturates_top_bin(self):
        # Proportional term alone (0.87 * ~1.5) exceeds the 1.25 output
        # ceiling, so the first tick lands on the top bin.
        cfg = default_config(n=15)
        grids = cfg.build_grids()
        st = QuantPidState(integral_bin=grids.integral.zero_index)
        out = PidOracle(grids, GAINS, DT).step(st, 1.5, 0.0, 0.0)
        assert out == grids.output.n - 1
        assert grids.output.values[out] == 1.25

    def test_integral_state_persists(self):
        cfg = default_config(n=151)
        grids = cfg.build_grids()
        oracle = PidOracle(grids, GAINS, DT)
        st = oracle.fresh_state()
        oracle.step(st, 1.5, 0.0, 0.0)
        assert st.integral_bin > grids.integral.zero_index

    def test_high_resolution_matches_continuous_pid(self):
        """At 1001 bins the oracle tracks the float PID to within the
        stage-wise rounding bound: each stage rounds to half a bin and
        the upstream stages are amplified by their gains."""
        cfg = default_config(n=1001)
        grids = cfg.build_grids()
        oracle = PidOracle(grids, GAINS, DT)
        st = oracle.fresh_state()
        pid = PidState()
        rng = np.random.default_rng(11)

        def half_bin(g):
            return max(g.gaps()) / 2

        bound = (GAINS.kp * half_bin(grids.error)
                 + GAINS.ki * half_bin(grids.integral)
                 + GAINS.kd * half_bin(grids.derivative)
                 + half_bin(grids.output))
        t = 2.0
        worst = 0.0
        for _ in range(100):
            y = rng.uniform(1.5, 2.5)
            d = rng.uniform(-0.4, 0.4)
            got = grids.output.values[oracle.step(st, t, y, d)]
            want = pid_step(pid, t, y, DT, GAINS, clamp=(-1.25, 1.25),
                            derivative=d)
            # keep the reference integral aligned with what its grid holds
            pid.integral = grids.integral.values[st.integral_bin]
            worst = max(worst, abs(got - want))
        assert worst <= bound
        # the bound itself vanishes with resolution: a handful of bins here
        out_bin = (grids.output.hi - grids.output.lo) / (grids.output.n - 1)
        assert bound <= 3 * out_bin

    def test_grid_without_zero_rejected(self):
        cfg = default_config(n=15)
        grids = cfg.build_grids()
        bad = grids.__class__(
            target_measurement=grids.target_measurement,
            error=make_grid(1, 3, 3),
            integral=grids.integral,
            derivative=grids.derivative,
            output=grids.output,
        )
        with pytest.raises(ValueError):
            PidOracle(bad, GAINS, DT)

    def test_invalid_decay_rejected(self):
        cfg = default_config(n=15)
        with pytest.raises(ValueError):
            PidOracle(cfg.build_grids(), GAINS, DT, lam=1.5)
