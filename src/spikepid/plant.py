"""1-DOF vertical quadrotor dynamics with a centimeter-quantized
altitude sensor.

The plant is the desk-scale stand-in for a full simulator: a point mass
on the vertical axis driven by total thrust, with optional linear drag,
a first-order motor lag and a ground plane.  The sensor floors the
altitude to 1 cm and differentiates the quantized signal, which is what
makes the derivative channel jumpy at high loop rates.

Non-finite policy: the plant rejects a non-finite input where it enters,
with a ValueError that names it, before it touches any state.
PlantParams rejects a mass that is not finite and positive, a drag or
motor_tau that is not finite and >= 0, and a hover_adjust that puts the
hover thrust outside the thrust limits [0, 4 * mass * G]; Integrator
rejects a dt that is not finite and positive and substeps that is not
an integer >= 1 once, when a run builds it, and its advance a command
that is not finite on every call; plant_step, one Integrator and one
advance on a copy of the state, rejects all three; sense rejects a
state whose altitude z is not finite and a dt_ctrl that is not finite
and positive; SensorModel rejects a quantum that is not finite and
positive and a window that is not an integer >= 1; battery_sag rejects
a beta that is not finite and >= 0.  A NaN therefore stops the
loop on the tick that produced it instead of spreading into the state
and failing later in an unrelated conversion.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "PlantParams",
    "PlantState",
    "SensorModel",
    "Integrator",
    "hover_thrust",
    "plant_step",
    "sense",
    "battery_sag",
]

G = 9.81  # m/s^2


@dataclass(frozen=True)
class PlantParams:
    """Settable plant constants.  Rotors push with 0 to thrust_max N."""

    mass: float = 0.68            # kg
    drag: float = 0.25            # N*s/m, linear in vz
    motor_tau: float = 0.02       # s; 0 = instantaneous thrust
    hover_adjust: float = 0.0     # N, hand-trim on top of mass*G

    def __post_init__(self):
        if not 0.0 < self.mass < math.inf:
            raise ValueError(f"mass must be finite and positive, got {self.mass!r}")
        for name in ("drag", "motor_tau"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not 0.0 <= hover_thrust(self) <= self.thrust_max:
            raise ValueError(f"hover_adjust must keep the hover thrust within "
                             f"[0, {self.thrust_max!r}] N, got {self.hover_adjust!r}")

    @property
    def thrust_max(self) -> float:
        """Upper thrust limit in N: four times the weight."""
        return 4.0 * self.mass * G


@dataclass(slots=True)
class PlantState:
    z: float = 0.0         # m, altitude
    vz: float = 0.0        # m/s
    thrust: float = 0.0    # N, actual thrust after motor lag
    t: float = 0.0         # s


def hover_thrust(params: PlantParams) -> float:
    """Weight-compensating thrust: mass * G plus the hand adjustment."""
    return params.mass * G + params.hover_adjust


class Integrator:
    """Moves a PlantState by substeps steps of dt seconds per call, in
    place, under one held thrust command.

    A closed-loop run fixes the plant, dt and substeps, so the
    constructor checks dt and substeps and derives the thrust limit, the
    weight and the motor-lag factor once; advance checks only the
    command.

    Raises ValueError, naming the argument, for a dt that is not finite
    and positive or substeps that is not an integer >= 1.
    """

    __slots__ = ("_constants",)

    def __init__(self, params: PlantParams, dt: float, substeps: int = 1):
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be finite and positive, got {dt!r}")
        if not isinstance(substeps, numbers.Integral) or substeps < 1:
            raise ValueError(f"substeps must be an integer >= 1, got {substeps!r}")
        lag = params.motor_tau > 0
        alpha = 1.0 - math.exp(-dt / params.motor_tau) if lag else 1.0
        # One tuple, unpacked by advance in one go.
        self._constants = (params.thrust_max, params.mass, params.drag,
                           params.mass * G, lag, alpha, dt, range(substeps))

    def advance(self, state: PlantState, command: float) -> None:
        """Advance state by substeps steps of dt under command.

        The command clamps to the thrust limits once; on each step the
        actual thrust relaxes toward it with the motor time constant and
        the mass integrates with semi-implicit Euler.  Touching the ground
        clamps z to 0 and kills any downward velocity, checked on every
        step.  The result equals substeps chained single steps, bit for
        bit: each step keeps the single step's operation order and adds dt
        to t once.

        Raises ValueError naming the command, before state changes, for a
        command that is not finite.
        """
        if not math.isfinite(command):
            raise ValueError(f"command must be finite, got {command!r}")
        thrust_max, mass, drag, weight, lag, alpha, dt, steps = self._constants
        # min(max(command, 0.0), thrust_max), signed zeros included, without
        # two builtin calls per tick.
        cmd = thrust_max if thrust_max < command else 0.0 if command < 0.0 else command
        z, vz, thrust, t = state.z, state.vz, state.thrust, state.t
        for _ in steps:
            thrust = thrust + alpha * (cmd - thrust) if lag else cmd
            vz = vz + ((thrust - weight) - drag * vz) / mass * dt
            z = z + vz * dt
            if z <= 0.0:
                z = 0.0
                vz = max(vz, 0.0)
            t = t + dt
        state.z, state.vz, state.thrust, state.t = z, vz, thrust, t


def plant_step(state: PlantState, command: float, dt: float,
               params: PlantParams, substeps: int = 1) -> PlantState:
    """Return a new state: state advanced by substeps steps of dt seconds
    under one held thrust command, as Integrator.advance moves it.  state
    itself is not changed.

    Raises ValueError, naming the argument, for a command that is not
    finite, a dt that is not finite and positive, or substeps that is not
    an integer >= 1.
    """
    new = PlantState(state.z, state.vz, state.thrust, state.t)
    Integrator(params, dt, substeps).advance(new, command)
    return new


@dataclass
class SensorModel:
    """Floor-quantized altimeter plus finite-difference climb rate.

    The derivative spans window control ticks (window 1 is the plain
    backward difference) and reads 0 until enough samples exist.
    """

    quantum: float = 0.01   # m
    window: int = 1         # ticks
    _history: deque = field(init=False, repr=False)  # the last window + 1 readings

    def __post_init__(self):
        if not 0.0 < self.quantum < math.inf:
            raise ValueError(f"quantum must be finite and positive, got {self.quantum!r}")
        if not isinstance(self.window, numbers.Integral) or self.window < 1:
            raise ValueError(f"window must be an integer >= 1, got {self.window!r}")
        self._history = deque(maxlen=self.window + 1)


def sense(model: SensorModel, state: PlantState, dt_ctrl: float) -> tuple[float, float]:
    """Quantized altitude and its finite-difference rate.

    Returns (z_hat, d_hat) where z_hat = quantum * floor(z / quantum)
    and d_hat spans the configured window of control ticks.
    """
    if not 0.0 < dt_ctrl < math.inf:
        raise ValueError(f"dt_ctrl must be finite and positive, got {dt_ctrl!r}")
    if not math.isfinite(state.z):
        raise ValueError(f"state.z must be finite, got {state.z!r}")
    # Tiny epsilon so exact quantum multiples (1.50 / 0.01) don't floor
    # into the bin below through float division error.
    z_hat = math.floor(state.z / model.quantum + 1e-9) * model.quantum
    hist = model._history
    hist.append(z_hat)
    if len(hist) <= model.window:
        d_hat = 0.0
    else:
        d_hat = (hist[-1] - hist[0]) / (model.window * dt_ctrl)
    return z_hat, d_hat


def battery_sag(t: float, beta: float = 0.0) -> float:
    """Thrust bias -beta * t modelling a linearly sagging supply; added
    to the command before clamping."""
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta!r}")
    return -beta * t
