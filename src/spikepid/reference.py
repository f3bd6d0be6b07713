"""Reference controllers: a conventional discrete PID and a bin-level
arithmetic oracle that mirrors the spiking controller's semantics.

The oracle performs the same pipeline (error, decayed integral, gain-
weighted output) by direct arithmetic on grid values and rounds each
stage to its grid with the same rounding mode, so a correct spiking
network must reproduce its bin stream exactly in float mode.  It never
touches the spiking machinery: winners come from counting grid
boundaries, not from propagating spikes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .grids import ValueGrid, encode
from .units import choose_scale, quantize_weight, round_half_away

__all__ = [
    "PidGains",
    "PidState",
    "pid_step",
    "QuantPidState",
    "PidOracle",
    "round_to_grid",
]


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
    prev_error: float = 0.0
    initialized: bool = False


def pid_step(state: PidState, r: float, y: float, dt: float, gains: PidGains,
             clamp: tuple[float, float] | None = None, lam: float = 1.0,
             derivative: float | None = None) -> float:
    """One step of the discrete PID:

        e = r - y
        i <- lam * i + e * dt
        d = (e - e_prev) / dt        (0 on the first step)
        u = kp*e + (kp/ti)*i + (kp*td)*d, clamped to the output range

    The error derivative can be overridden with an externally measured
    value (mirroring the controller that feeds its derivative input
    directly); by default it is the backward difference of the error,
    seeded so the first step produces no derivative kick.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    e = r - y
    if not state.initialized:
        state.prev_error = e
        state.initialized = True
    state.integral = lam * state.integral + e * dt
    if derivative is None:
        d = (e - state.prev_error) / dt
    else:
        d = derivative
    state.prev_error = e
    u = gains.kp * e + gains.ki * state.integral + gains.kd * d
    if clamp is not None:
        u = min(max(u, clamp[0]), clamp[1])
    return u


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
    return up, down


def _count_boundaries(zero: int, up, down, x):
    """Bin of x on a ladder pair: zero plus the number of up boundaries x
    has reached, or, for negative x, zero minus the number of down
    boundaries -x has reached.  Clamping is implicit: the count saturates
    at the ladder's length.  x is a scalar (bisect over list ladders) or
    a numpy array (searchsorted, same rule elementwise)."""
    if isinstance(x, np.ndarray):
        return np.where(x >= 0, zero + np.searchsorted(up, x, side="right"),
                        zero - np.searchsorted(down, -x, side="right"))
    if x >= 0:
        return zero + bisect_right(up, x)
    return zero - bisect_right(down, -x)


def round_to_grid(grid: ValueGrid, x, mode: str = "nearest"):
    """Bin index of x rounded onto the grid, clamped to its ends.  x may
    be a float (returns an int) or a numpy array (returns an int64 array
    of bins)."""
    up, down = _boundary_ladders(grid, mode)
    return _count_boundaries(grid.zero_index, up, down, x)


# -- bin-level oracle --------------------------------------------------------


@dataclass
class QuantPidState:
    integral_bin: int


class _StageModel:
    """Arithmetic mirror of one adder stage: per-input contribution
    tables plus boundary ladders over the output grid.

    In quantized mode the contributions and boundaries are the even-
    integer weights and integer thresholds the hardware constraint
    implies, derived here from the same public quantization rules; the
    winner is still found by arithmetic comparison, never by spiking.
    """

    def __init__(self, tables, out_grid: ValueGrid, mode: str, quantized: bool):
        self.out_grid = out_grid
        self.zero = out_grid.zero_index
        up, down = _boundary_ladders(out_grid, mode)
        if quantized:
            scale = choose_scale([w for row in tables for w in row])
            self.tables = [[quantize_weight(w, scale) for w in row] for row in tables]
            self.up = [max(1, round_half_away(b * scale)) for b in up]
            self.down = [max(1, round_half_away(b * scale)) for b in down]
        else:
            self.tables = [list(row) for row in tables]
            self.up = up
            self.down = down

    def bin(self, *bins) -> int:
        s = self.tables[0][bins[0]]
        for row, b in zip(self.tables[1:], bins[1:]):
            s = s + row[b]
        return _count_boundaries(self.zero, self.up, self.down, s)


class PidOracle:
    """Bin-in, bin-out PID pipeline over the configured grids.

    grids must expose target_measurement, error, integral, derivative and
    output ValueGrids (an NpidConfig's built grids satisfy this).
    """

    def __init__(self, grids, gains: PidGains, dt: float, lam: float = 1.0,
                 mode: str = "nearest", quantized: bool = False):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not 0 < lam <= 1:
            raise ValueError("decay must lie in (0, 1]")
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

    def fresh_state(self) -> QuantPidState:
        return QuantPidState(integral_bin=self.grids.integral.zero_index)

    def step_bins(self, state: QuantPidState, target_bin: int,
                  measurement_bin: int, derivative_bin: int) -> int:
        e_bin = self._err.bin(target_bin, measurement_bin)
        i_bin = self._int.bin(state.integral_bin, e_bin)
        u_bin = self._ctl.bin(e_bin, i_bin, derivative_bin)
        state.integral_bin = i_bin
        return u_bin

    def step(self, state: QuantPidState, target: float, measurement: float,
             derivative: float) -> int:
        tm = self.grids.target_measurement
        return self.step_bins(
            state,
            encode(tm, target),
            encode(tm, measurement),
            encode(self.grids.derivative, derivative),
        )
