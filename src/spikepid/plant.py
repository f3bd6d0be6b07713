"""1-DOF vertical quadrotor dynamics with a centimeter-quantized
altitude sensor.

The plant is the desk-scale stand-in for a full simulator: a point mass
on the vertical axis driven by total thrust, with optional linear drag,
a first-order motor lag and a ground plane.  The sensor floors the
altitude to 1 cm and differentiates the quantized signal, which is what
makes the derivative channel jumpy at high loop rates.

Non-finite policy: the plant rejects a non-finite input where it enters,
with a ValueError that names it, before it touches any state.
plant_step rejects a command that is not finite, a dt that is not finite
and positive, and substeps that is not an integer >= 1; sense rejects a
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
    "hover_thrust",
    "plant_step",
    "sense",
    "battery_sag",
]

G = 9.81


@dataclass(frozen=True)
class PlantParams:
    mass: float = 0.68            # kg
    g: float = G                  # m/s^2
    drag: float = 0.25            # N*s/m, linear in vz
    motor_tau: float = 0.02       # s; 0 = instantaneous thrust
    thrust_min: float = 0.0       # N; rotors cannot pull down
    thrust_max: float | None = None  # N; default 4x hover
    hover_adjust: float = 0.0     # N, hand-trim on top of mass*g

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.drag < 0:
            raise ValueError("drag must be >= 0")
        if self.motor_tau < 0:
            raise ValueError("motor time constant must be >= 0")
        if self.thrust_max is None:
            object.__setattr__(self, "thrust_max", 4.0 * self.mass * self.g)
        hover = self.mass * self.g + self.hover_adjust
        if not self.thrust_min <= hover <= self.thrust_max:
            raise ValueError("hover thrust must lie within the thrust limits")


@dataclass
class PlantState:
    z: float = 0.0         # m, altitude
    vz: float = 0.0        # m/s
    thrust: float = 0.0    # N, actual thrust after motor lag
    t: float = 0.0         # s


def hover_thrust(params: PlantParams) -> float:
    """Weight-compensating thrust: mass * g plus the hand adjustment."""
    return params.mass * params.g + params.hover_adjust


def plant_step(state: PlantState, command: float, dt: float,
               params: PlantParams, substeps: int = 1) -> PlantState:
    """Advance the plant by substeps steps of dt seconds under one held
    thrust command and return the new state.

    The command clamps to the thrust limits once; on each step the actual
    thrust relaxes toward it with the motor time constant and the mass
    integrates with semi-implicit Euler.  Touching the ground clamps z to
    0 and kills any downward velocity, checked on every step.  The result
    equals substeps chained calls with substeps=1, bit for bit: each step
    keeps the single step's operation order and adds dt to t once.

    Raises ValueError, naming the argument, for a command that is not
    finite, a dt that is not finite and positive, or substeps that is not
    an integer >= 1.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if not isinstance(substeps, numbers.Integral) or substeps < 1:
        raise ValueError(f"substeps must be an integer >= 1, got {substeps!r}")
    if not math.isfinite(command):
        raise ValueError(f"command must be finite, got {command!r}")
    cmd = min(max(command, params.thrust_min), params.thrust_max)
    mass, drag = params.mass, params.drag
    weight = mass * params.g
    lag = params.motor_tau > 0
    alpha = 1.0 - math.exp(-dt / params.motor_tau) if lag else 1.0
    z, vz, thrust, t = state.z, state.vz, state.thrust, state.t
    for _ in range(substeps):
        thrust = thrust + alpha * (cmd - thrust) if lag else cmd
        vz = vz + ((thrust - weight) - drag * vz) / mass * dt
        z = z + vz * dt
        if z <= 0.0:
            z = 0.0
            vz = max(vz, 0.0)
        t = t + dt
    return PlantState(z=z, vz=vz, thrust=thrust, t=t)


@dataclass
class SensorModel:
    """Floor-quantized altimeter plus finite-difference climb rate.

    The derivative spans window control ticks (window 1 is the plain
    backward difference) and reads 0 until enough samples exist.
    """

    quantum: float = 0.01   # m
    window: int = 1         # ticks
    _history: deque = field(default_factory=deque, repr=False)

    def __post_init__(self):
        if not 0.0 < self.quantum < math.inf:
            raise ValueError(f"quantum must be finite and positive, got {self.quantum!r}")
        if not isinstance(self.window, numbers.Integral) or self.window < 1:
            raise ValueError(f"window must be an integer >= 1, got {self.window!r}")

    def reset(self) -> None:
        self._history.clear()


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
    while len(hist) > model.window + 1:
        hist.popleft()
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
