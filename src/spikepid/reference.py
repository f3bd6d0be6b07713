"""Reference controllers: the closed loop's baseline PID, which takes the
spiking controller's inputs (the measured error derivative included), and
a bin-level arithmetic oracle that mirrors its semantics.

The oracle performs the same pipeline (error, decayed integral, gain-
weighted output) by direct arithmetic on grid values and rounds each
stage to its grid with the same rounding mode, so a correct spiking
network must reproduce its bin stream exactly in float mode.  It never
touches the spiking machinery: winners come from arithmetic on the
grid's boundaries, not from propagating spikes.  There is one rounding
rule: a sum's bin is the number of the grid's sorted step points at or
below it (_step_points), one bisect_right for a scalar and one
np.searchsorted for an array.

The two-input stages (error and integral) are tabulated when the oracle
is built: the array path sums their contribution tables over every input
tuple and searches the step points once, at O(N^2) time and memory per
stage, so a tick reads two map entries and computes only the three-input
control stage, inline in step_bins: its contribution tables summed left
to right and one bisect_right over its step points, the adds and search
of _StageModel.bin (build costs in the PidOracle docstring).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .grids import ValueGrid, bin_rows, encode, nan_input
from .units import (MODE_FLOOR, MODE_NEAREST, choose_scale, quantize_weight,
                    round_half_away)

__all__ = [
    "PidGains",
    "PidState",
    "pid_step",
    "QuantPidState",
    "PidOracle",
    "round_to_grid",
]


def check_pipeline(dt: float, decay: float, mode: str, quantized: bool) -> None:
    """Raise ValueError, naming the parameter, unless dt is finite and
    positive, decay lies in (0, 1], mode is floor or nearest and
    quantized is a bool: the rules of NpidConfig and PidOracle alike."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not 0 < decay <= 1:
        raise ValueError(f"decay must lie in (0, 1], got {decay!r}")
    if mode not in (MODE_FLOOR, MODE_NEAREST):
        raise ValueError(f"mode must be {MODE_FLOOR!r} or {MODE_NEAREST!r}, got {mode!r}")
    if not isinstance(quantized, bool):
        raise ValueError(f"quantized must be a bool, got {quantized!r}")


@dataclass(frozen=True)
class PidGains:
    """Proportional gain and integral/derivative time constants."""

    kp: float = 0.87
    ti: float = 0.17
    td: float = 2.76

    def __post_init__(self):
        # kp and ti divide (ki = kp/ti, integral bound ti/kp); td = 0 is PI.
        for name, value in (("kp", self.kp), ("ti", self.ti)):
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"PidGains.{name} must be finite and > 0, got {value!r}")
        if not (self.td >= 0 and math.isfinite(self.td)):
            raise ValueError(f"PidGains.td must be finite and >= 0, got {self.td!r}")

    @property
    def ki(self) -> float:
        return self.kp / self.ti

    @property
    def kd(self) -> float:
        return self.kp * self.td


@dataclass
class PidState:
    integral: float = 0.0


def pid_step(state: PidState, r: float, y: float, dt: float, gains: PidGains, *,
             clamp: tuple[float, float], lam: float, derivative: float) -> float:
    """One step of the discrete PID on a measured error derivative:

        e = r - y
        i <- lam * i + e * dt
        u = kp*e + (kp/ti)*i + (kp*td)*derivative, clamped to clamp
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    e = r - y
    state.integral = lam * state.integral + e * dt
    u = gains.kp * e + gains.ki * state.integral + gains.kd * derivative
    return min(max(u, clamp[0]), clamp[1])


# -- grid rounding (oracle side) -------------------------------------------


def _boundary_ladders(grid: ValueGrid, mode: str):
    """Magnitude thresholds above and below zero for one rounding mode.

    floor: a value belongs to bin k while its magnitude has reached
    |values[k]| but not the next magnitude (truncation toward zero).
    nearest: boundaries sit halfway between adjacent magnitudes, ties
    away from zero.
    """
    z = grid.zero_index
    if z is None:
        raise ValueError("oracle grids must contain the value 0")
    pos = [grid.values[i] for i in range(z, grid.n)]
    neg = [-grid.values[i] for i in range(z, -1, -1)]
    if mode == "floor":
        up = pos[1:]
        down = neg[1:]
    elif mode == "nearest":
        up = [(pos[k - 1] + pos[k]) / 2.0 for k in range(1, len(pos))]
        down = [(neg[k - 1] + neg[k]) / 2.0 for k in range(1, len(neg))]
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")
    # A boundary at 0.0 (nearest mode, when the magnitude next to zero
    # halves to 0.0) would round 0.0 itself off the zero bin.
    b = min(up + down, default=1.0)
    if not b > 0:
        raise ValueError(
            f"{mode} boundary {b!r} of the grid [{grid.lo!r}, {grid.hi!r}] "
            f"(n={grid.n}, {grid.distribution}) is not > 0, so 0.0 would "
            f"not round to 0 (the values next to 0 lie too close to it)")
    return up, down


def _step_points(up, down, integer: bool) -> list:
    """The sorted points where the bin steps up by one as the sum x
    rises: each up boundary, and per down boundary d the least x with
    -x < d, 1 - d on integers (quantized stages), else nextafter(-d, inf).
    The bin of x is the number of points at or below it: down has
    zero_index entries and every boundary is > 0 (_boundary_ladders),
    so x >= 0 passes every down stop plus the up boundaries it reaches,
    and x < 0 no up boundary and the down stops of those -x misses."""
    stops = [1 - d for d in down] if integer else [math.nextafter(-d, math.inf)
                                                  for d in down]
    return sorted(up + stops)


def round_to_grid(grid: ValueGrid, x, mode: str = "nearest"):
    """Bin index of x rounded onto the grid, clamped to its ends: the
    number of the grid's step points at or below x.  x may be a float
    (returns an int) or a numpy array (returns an int64 array of bins)."""
    points = _step_points(*_boundary_ladders(grid, mode), integer=False)
    if isinstance(x, np.ndarray):
        return np.searchsorted(points, x, side="right")
    return bisect_right(points, x)


# -- bin-level oracle --------------------------------------------------------


@dataclass
class QuantPidState:
    integral_bin: int


class _StageModel:
    """Arithmetic mirror of one adder stage: per-input contribution
    tables plus the step points of the output grid.

    In quantized mode the contributions and boundaries are the even-
    integer weights and integer thresholds the hardware constraint
    implies, derived here from the same public quantization rules; the
    winner is still found by arithmetic comparison, never by spiking.
    """

    def __init__(self, tables, out_grid: ValueGrid, mode: str, quantized: bool):
        up, down = _boundary_ladders(out_grid, mode)
        if quantized:
            scale = choose_scale([w for row in tables for w in row])
            self.tables = [[quantize_weight(w, scale) for w in row] for row in tables]
            up = [max(1, round_half_away(b * scale)) for b in up]
            down = [max(1, round_half_away(b * scale)) for b in down]
        else:
            self.tables = [list(row) for row in tables]
        self.points = _step_points(up, down, integer=quantized)

    def bin(self, *bins) -> int:
        """Output bin of one input tuple: the contributions summed left
        to right, then the step points at or below the sum counted."""
        tables = self.tables
        s = tables[0][bins[0]]
        for p in range(1, len(tables)):
            s = s + tables[p][bins[p]]
        return bisect_right(self.points, s)

    def stage_map(self) -> np.ndarray:
        """Output bin of every input tuple, shaped by the input sizes.
        The tables are summed left to right by broadcasting, the adds
        bin makes in the same order, and one search of the step points
        rounds them."""
        s = np.asarray(self.tables[0])
        for row in self.tables[1:]:
            s = s[..., None] + np.asarray(row)
        return np.searchsorted(self.points, s, side="right")


class PidOracle:
    """Bin-in, bin-out PID pipeline over the configured grids.

    grids must expose target_measurement, error, integral, derivative and
    output ValueGrids (an NpidConfig's built grids satisfy this).

    The error and integral stages are tabulated at construction by
    _StageModel.stage_map, N^2 entries each, by arithmetic alone, and
    kept by grids.bin_rows: one read-only memoryview per first-input bin
    over the narrowest unsigned dtype (uint8 up to 256 bins), so a lookup
    returns a Python int.  NpidNetwork keeps the spiking units' maps in
    the same format.  That costs O(N^2) time and memory: a build takes
    about 1-4 ms and 1 MB of temporaries at N=151, and 50-90 ms and
    19 MB of temporaries (float or quantized) at N=1001, where the two
    maps keep 2 MB each (2-vCPU Xeon, Python 3.11, numpy 2.4; medians of
    7 builds, peak RSS rise).  The control stage, N^3 tuples (3.4 million
    at N=151), is computed per tick in step_bins, which reads the
    stage's three tables and step points once, at build, and makes
    _StageModel.bin's adds in its order.  Each stage sorts its step
    points once, when it is built, and every bin, mapped or per tick, is
    the count of those points at or below the sum.
    """

    def __init__(self, grids, gains: PidGains, dt: float, lam: float = 1.0,
                 mode: str = "nearest", quantized: bool = False):
        check_pipeline(dt, lam, mode, quantized)
        self.grids = grids
        self.gains = gains
        self.dt = dt
        self.lam = lam
        self.mode = mode
        self.quantized = quantized
        tm = grids.target_measurement
        self._err = _StageModel(
            [[1.0 * v for v in tm.values], [-(1.0 * v) for v in tm.values]],
            grids.error, mode, quantized,
        )
        self._int = _StageModel(
            [[lam * v for v in grids.integral.values],
             [dt * v for v in grids.error.values]],
            grids.integral, mode, quantized,
        )
        self._ctl = _StageModel(
            [[gains.kp * v for v in grids.error.values],
             [gains.ki * v for v in grids.integral.values],
             [gains.kd * v for v in grids.derivative.values]],
            grids.output, mode, quantized,
        )
        self._ctl_tick = (*self._ctl.tables, self._ctl.points)
        self._err_map = bin_rows(self._err.stage_map(), grids.error)
        self._int_map = bin_rows(self._int.stage_map(), grids.integral)

    def fresh_state(self) -> QuantPidState:
        return QuantPidState(integral_bin=self.grids.integral.zero_index)

    def step_bins(self, state: QuantPidState, target_bin: int,
                  measurement_bin: int, derivative_bin: int) -> int:
        e_bin = self._err_map[target_bin][measurement_bin]
        i_bin = self._int_map[state.integral_bin][e_bin]
        c0, c1, c2, points = self._ctl_tick
        u_bin = bisect_right(points, c0[e_bin] + c1[i_bin] + c2[derivative_bin])
        state.integral_bin = i_bin
        return u_bin

    def step(self, state: QuantPidState, target: float, measurement: float,
             derivative: float) -> int:
        """step_bins on the encoded inputs.  A NaN input raises
        ValueError naming it, before the state changes."""
        tm = self.grids.target_measurement
        try:
            bins = (encode(tm, target), encode(tm, measurement),
                    encode(self.grids.derivative, derivative))
        except ValueError:
            raise nan_input(target=target, measurement=measurement,
                            derivative=derivative) from None
        return self.step_bins(state, *bins)
