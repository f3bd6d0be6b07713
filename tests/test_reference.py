"""Conventional PID and the bin-level arithmetic oracle."""

import functools
import math
import re
import tracemalloc
from bisect import bisect_right
from dataclasses import fields

import numpy as np
import pytest

from spikepid.controller import _tables, build_npid, default_config
from spikepid.harness import cosimulate, step_experiment
from spikepid.grids import make_grid
from spikepid.reference import (
    PidGains,
    PidOracle,
    PidState,
    QuantPidState,
    _boundary_ladders,
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
    """pid_step takes the clamp, the integral leak and the measured error
    derivative on every call; OPEN is a clamp that never binds."""

    OPEN = (-math.inf, math.inf)

    def test_zero_error_zero_output(self):
        st = PidState()
        for _ in range(50):
            assert pid_step(st, 2.0, 2.0, DT, GAINS, clamp=self.OPEN, lam=1.0,
                            derivative=0.0) == 0.0

    def test_first_step_example(self):
        # e=1.5, i=1.5/70, d=0: u = 1.305 + 5.11765 * 0.0214286
        u = pid_step(PidState(), 1.5, 0.0, DT, GAINS, clamp=self.OPEN, lam=1.0,
                     derivative=0.0)
        assert u == pytest.approx(1.414664, abs=1e-5)
        u_clamped = pid_step(PidState(), 1.5, 0.0, DT, GAINS, clamp=(-1.25, 1.25),
                             lam=1.0, derivative=0.0)
        assert u_clamped == 1.25

    def test_lower_clamp(self):
        u = pid_step(PidState(), -1.5, 0.0, DT, GAINS, clamp=(-1.25, 1.25), lam=1.0,
                     derivative=0.0)
        assert u == -1.25

    def test_integral_leak(self):
        """lam < 1 shrinks the integral before each step adds e * dt, so a
        constant error sums a geometric series, not a straight line."""
        st = PidState()
        for _ in range(10):
            u = pid_step(st, 1.0, 0.0, DT, GAINS, clamp=self.OPEN, lam=0.5,
                         derivative=0.0)
        assert st.integral == pytest.approx((1 - 0.5 ** 10) / (1 - 0.5) * DT)
        assert u == pytest.approx(GAINS.kp + GAINS.ki * st.integral)

    def test_constant_error_grows_linearly(self):
        st = PidState()
        eps = 0.01
        us = [pid_step(st, eps, 0.0, DT, GAINS, clamp=self.OPEN, lam=1.0,
                       derivative=0.0) for _ in range(100)]
        assert np.allclose(np.diff(us), GAINS.ki * eps * DT)

    def test_decay_reduces_to_plain_form_at_one(self):
        st = PidState()
        for k in range(10):
            pid_step(st, 1.0, 0.0, DT, GAINS, clamp=self.OPEN, lam=1.0, derivative=0.0)
        assert st.integral == pytest.approx(10 * DT)

    def test_external_derivative_override(self):
        st = PidState()
        u = pid_step(st, 0.0, 0.0, DT, GAINS, clamp=self.OPEN, lam=1.0, derivative=0.5)
        assert u == pytest.approx(GAINS.kd * 0.5)

    def test_state_is_the_integral_alone(self):
        assert [f.name for f in fields(PidState)] == ["integral"]

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
    def test_invalid_dt(self, dt):
        state = PidState(integral=0.5)
        with pytest.raises(ValueError, match=f"^dt must be finite and positive, got {dt!r}$"):
            pid_step(state, 1, 0, dt, GAINS, clamp=self.OPEN, lam=1.0, derivative=0.0)
        assert state.integral == 0.5


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
        # Nearest mode halves 5e-324 to a 0.0 boundary, which would round
        # 0.0 itself off the zero bin; floor mode keeps 5e-324.
        tiny = make_grid(-5e-324, 5e-324, 3)
        for x in (0.0, np.array([0.0])):
            with pytest.raises(ValueError, match=r"^nearest boundary 0\.0 of the "
                                                 r"grid \[-5e-324, 5e-324\]"):
                round_to_grid(tiny, x, "nearest")
        assert round_to_grid(tiny, 0.0, "floor") == 1

    @pytest.mark.parametrize("mode", ["floor", "nearest"])
    @pytest.mark.parametrize("dist", ["uniform", "quadratic"])
    def test_array_equals_scalar_calls(self, mode, dist):
        """round_to_grid, scalar and array, follows the sign-split rule
        elementwise, on exact boundaries, out-of-range values and signed
        zero too: on a small grid and around every boundary of
        verify_adder's n=151 output grid.  So do each stage's bin and
        array search, for the flown configs on this grid and mode, float
        and quantized, around every threshold of the matching spiking
        unit (with integer sums on quantized stages)."""
        g = make_grid(-2, 2, 9, dist)
        vals = np.asarray(g.values)
        mids = (vals[1:] + vals[:-1]) / 2
        x = np.concatenate([vals, mids, np.nextafter(vals, 0), np.nextafter(mids, 0),
                            [-0.0, 0.0, 2.5, -2.5, 1e9, -1e9, np.inf, -np.inf]])
        got = round_to_grid(g, x, mode)
        assert got.dtype == np.int64
        want = [_sign_split_bin(g.zero_index, *_boundary_ladders(g, mode), v)
                for v in x.tolist()]
        assert got.tolist() == [round_to_grid(g, v, mode) for v in x.tolist()] == want
        assert round_to_grid(g, np.array([-0.0]), mode)[0] == g.zero_index

        out = make_grid(-2.5, 2.5, 301, dist)
        up, down = _boundary_ladders(out, mode)
        cases = [(lambda xs: round_to_grid(out, np.asarray(xs), mode).tolist(),
                  lambda v: round_to_grid(out, v, mode), out.zero_index, up, down)]
        for cfg in _FLOWN:
            if cfg.mode == mode and cfg.error_grid.distribution == dist:
                oracle = _oracle(cfg)
                for stage, unit in zip((oracle._err, oracle._int, oracle._ctl),
                                       build_npid(cfg).units):
                    cases.append((functools.partial(_stage_search, stage),
                                  functools.partial(_stage_bin, stage), unit.zero_index,
                                  unit.thr_pos[1:], unit.thr_neg[1:]))
        for search, scalar, zero, up, down in cases:
            b = np.concatenate([up, down])
            if b.dtype.kind == "i":  # quantized sums are integers
                xs = np.concatenate([b - 1, b, b + 1, 1 - b, -b, -1 - b, [0, 10**9, -10**9]])
            else:
                xs = np.concatenate([b, -b, np.nextafter(b, np.inf), np.nextafter(-b, -np.inf),
                                     np.nextafter(b, 0), np.nextafter(-b, 0),
                                     [-0.0, 0.0, 1e9, -1e9, np.inf, -np.inf]])
            xs = xs.tolist()
            want = [_sign_split_bin(zero, up, down, v) for v in xs]
            assert search(xs) == [scalar(v) for v in xs] == want


def _sign_split_bin(zero, up, down, x):
    """The definitional rounding rule: zero plus the number of up
    boundaries x reaches, or, for negative x, zero minus the number of
    down boundaries -x reaches."""
    if x >= 0:
        return zero + bisect_right(up, x)
    return zero - bisect_right(down, -x)


def _stage_search(stage, xs):
    """stage_map's array search, on the sums xs."""
    stage.tables = [xs]
    got = stage.stage_map()
    assert got.dtype == np.int64
    return got.tolist()


def _stage_bin(stage, x):
    """bin's scalar search, on the sum x."""
    stage.tables = [[x]]
    return stage.bin(0)


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
            want = pid_step(pid, t, y, DT, GAINS, clamp=(-1.25, 1.25), lam=1.0,
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
        with pytest.raises(ValueError, match=r"^decay must lie in \(0, 1\], got 1.5$"):
            PidOracle(cfg.build_grids(), GAINS, DT, lam=1.5)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 0.0, -1.0])
    def test_invalid_dt_rejected(self, dt):
        grids = default_config(n=15).build_grids()
        with pytest.raises(ValueError, match=f"^dt must be finite and positive, got {dt!r}$"):
            PidOracle(grids, GAINS, dt)

    @pytest.mark.parametrize("kwargs, message", [
        ({"quantized": "no"}, "quantized must be a bool, got 'no'"),
        ({"quantized": 1}, "quantized must be a bool, got 1"),
        ({"quantized": None}, "quantized must be a bool, got None"),
        ({"mode": "sideways"}, "mode must be 'floor' or 'nearest', got 'sideways'"),
        ({"mode": "Nearest"}, "mode must be 'floor' or 'nearest', got 'Nearest'"),
        ({"mode": None}, "mode must be 'floor' or 'nearest', got None"),
    ])
    def test_invalid_mode_or_quantized_rejected_before_any_stage(
            self, monkeypatch, kwargs, message):
        grids = default_config(n=15).build_grids()

        def no_stage(*args, **kw):
            raise AssertionError("a stage was built before the arguments were checked")

        monkeypatch.setattr("spikepid.reference._StageModel", no_stage)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PidOracle(grids, GAINS, DT, **kwargs)

    @pytest.mark.parametrize("name", ["target", "measurement", "derivative"])
    def test_nan_input_rejected_by_name_before_the_state_changes(self, name):
        oracle = _oracle(default_config(n=15))
        state = oracle.fresh_state()
        oracle.step(state, 3.0, 0.0, 0.0)
        before = state.integral_bin
        inputs = {"target": 1.0, "measurement": 0.5, "derivative": 0.0, name: math.nan}
        with pytest.raises(ValueError, match=f"^{name} must not be NaN, got nan$"):
            oracle.step(state, **inputs)
        assert state.integral_bin == before


def _oracle(cfg, grids=None):
    return PidOracle(grids or cfg.build_grids(), cfg.gains, cfg.dt, lam=cfg.decay,
                     mode=cfg.mode, quantized=cfg.quantized)


class TestStageMaps:
    """The error and integral stages are looked up in maps built once by
    the array path; the control stage stays on the scalar bin."""

    @pytest.mark.parametrize("quantized", [False, True])
    @pytest.mark.parametrize("mode", ["floor", "nearest"])
    @pytest.mark.parametrize("dist", ["uniform", "quadratic"])
    @pytest.mark.parametrize("n", [15, 63, 151])
    def test_maps_equal_the_scalar_stage(self, n, dist, mode, quantized):
        oracle = _oracle(default_config(n=n, distribution=dist, mode=mode,
                                        quantized=quantized))
        for stage, rows in ((oracle._err, oracle._err_map),
                            (oracle._int, oracle._int_map)):
            assert len(rows) == len(stage.tables[0])
            for a, row in enumerate(rows):
                assert len(row) == len(stage.tables[1])
                for b in range(len(row)):
                    got = row[b]
                    assert type(got) is int
                    assert got == stage.bin(a, b), (a, b)
        st = oracle.fresh_state()
        top = len(oracle._err_map) - 1
        oracle.step_bins(st, top, 0, 0)
        assert type(st.integral_bin) is int
        assert st.integral_bin > oracle.grids.integral.zero_index

    @pytest.mark.parametrize("quantized", [False, True])
    def test_build_temporaries_stay_below_four_n_squared_doubles(self, quantized):
        """The array count searches each stage's sums once, with no
        sign-split copies and, on the integer sums of a quantized stage,
        in an integer ladder (no float64 copy of the sums), so an N=1001
        oracle build's traced peak stays below four N^2 float64 arrays
        and a quantized build peaks no higher than a float one.  The
        network, which builds its own two maps from the units, frees each
        map's potentials once they are keyed and, when quantized, keys
        them in an integer ladder, so it stays below three.  numpy reports
        its buffers to tracemalloc, so the readings repeat exactly."""
        def peak(build, q):
            cfg = default_config(n=1001, quantized=q)
            grids = cfg.build_grids()
            _tables.cache_clear()  # a network of a cached config builds nothing
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                build(cfg, grids)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(_oracle, quantized) < 4 * 1001 ** 2 * 8
        assert peak(lambda cfg, _: build_npid(cfg), quantized) < 3 * 1001 ** 2 * 8
        if quantized:
            assert peak(_oracle, True) <= peak(_oracle, False)

    def test_maps_are_read_only(self):
        """The rows both sides tick on cannot be written through."""
        cfg = default_config(n=15)
        net = build_npid(cfg)
        oracle = _oracle(cfg, net.grids)
        for rows in (oracle._err_map, oracle._int_map, net._err_map, net._int_map):
            before = rows[0][0]
            with pytest.raises(TypeError):
                rows[0][0] = before + 1
            assert rows[0][0] == before

    @pytest.mark.parametrize("quantized", [False, True])
    def test_three_input_stage_map_equals_the_scalar_stage(self, quantized):
        ctl = _oracle(default_config(n=15, quantized=quantized))._ctl
        got = ctl.stage_map()
        assert got.shape == (15, 15, 15)
        for tup in np.ndindex(got.shape):
            assert got[tup] == ctl.bin(*tup), tup


# The 12 flown closed-loop configs and criterion 5's.
_FLOWN = [step_experiment(n=n, distribution=dist, quantized=q).npid
          for n in (15, 63, 151) for dist in ("uniform", "quadratic")
          for q in (False, True)]
_FLOWN += [default_config(n=15, decay=0.97, quantized=q) for q in (False, True)]
# The step response's controller at N=1001, the resolution
# test_high_resolution_matches_continuous_pid flies.
_HIGH_RES = [step_experiment(n=1001, distribution=dist, quantized=q).npid
             for dist in ("uniform", "quadratic") for q in (False, True)]


def _cfg_id(c):
    return (f"n{c.error_grid.n}-{c.error_grid.distribution}-d{c.decay}"
            f"-{'quantized' if c.quantized else 'float'}")


@pytest.mark.parametrize("cfg", _FLOWN, ids=_cfg_id)
def test_flown_controllers_tick_like_the_oracle_and_their_netlist(cfg):
    """300 seeded ticks: the oracle's integral and control bins, and the
    three winners of a replay of the network's export, equal the
    network's on every tick."""
    report = cosimulate(cfg, 300, 1, against=("oracle", "netlist"))
    assert report.ok, report.summary()


@pytest.mark.parametrize("cfg", _FLOWN + _HIGH_RES, ids=_cfg_id)
def test_two_input_stages_equal_the_spiking_units_on_every_tuple(cfg):
    """Every (target, measurement) and (integral, error) tuple: the
    oracle's map, and the network's stored map that step reads, equal
    the unit's literal spike propagation.  The network's integral
    parking set is the same scan of either integral map."""
    net = build_npid(cfg)
    oracle = _oracle(cfg, net.grids)
    for unit, rows, oracle_rows in ((net.error_unit, net._err_map, oracle._err_map),
                                    (net.integral_unit, net._int_map, oracle._int_map)):
        assert np.array_equal(np.asarray(rows), unit.eval_all_pairs())
        assert np.array_equal(np.asarray(oracle_rows), np.asarray(rows))
    z = net.grids.error.zero_index
    assert net.integral_parking_set == tuple(
        i for i, row in enumerate(oracle._int_map) if row[z] == i)
