"""Position-code value grids: the ordered sets of representable values.

A scalar is represented by which single neuron of an ordered population
fires, so a grid is just the list of values those neurons stand for.
Grids are either uniformly spaced or quadratically spaced (finer around
zero), and encoding is a hard winner-takes-all: exactly one bin wins for
any real input.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ValueGrid", "check_grid", "make_grid", "encode", "nan_input", "bin_rows"]

UNIFORM = "uniform"
QUADRATIC = "quadratic"


@dataclass(frozen=True)
class ValueGrid:
    """Strictly increasing list of representable values plus metadata.

    values[0] == lo and values[-1] == hi exactly; symmetric odd grids
    contain exactly 0.0.
    """

    lo: float
    hi: float
    n: int
    distribution: str
    values: tuple[float, ...]
    # Upper decision boundary of each bin except the last (midpoints).
    # x <= boundary[i] encodes to a bin <= i; kept as a plain list so the
    # hot encode path can use bisect without numpy overhead.
    _boundaries: list[float] = field(repr=False, compare=False, default_factory=list)

    def __post_init__(self):
        bounds = [
            (self.values[i] + self.values[i + 1]) / 2.0 for i in range(self.n - 1)
        ]
        object.__setattr__(self, "_boundaries", bounds)

    @property
    def zero_index(self) -> int | None:
        """Index of the exact value 0.0, or None if absent."""
        try:
            return self.values.index(0.0)
        except ValueError:
            return None

    def gaps(self) -> list[float]:
        return [self.values[i + 1] - self.values[i] for i in range(self.n - 1)]

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "n": self.n,
            "distribution": self.distribution,
            "values": list(self.values),
        }


def _mirrored_levels(half: list[float]) -> list[float]:
    """[-reversed positives, 0, positives] with bit-exact symmetry."""
    return [-v for v in reversed(half[1:])] + half


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    vals = [lo + i * step for i in range(n)]
    vals[-1] = hi
    return vals


def check_grid(lo: float, hi: float, n: int, distribution: str) -> None:
    """Raise ValueError for a grid make_grid cannot build; each message
    starts with the argument's name, for a caller to prefix its field."""
    if not isinstance(n, numbers.Integral) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    for name, end in (("lo", lo), ("hi", hi)):
        if not math.isfinite(end):
            raise ValueError(f"{name} must be finite, got {end!r}")
    if not lo < hi:
        raise ValueError(f"lo must be < hi, got [{lo!r}, {hi!r}]")
    if distribution not in (UNIFORM, QUADRATIC):
        raise ValueError(f"distribution must be {UNIFORM!r} or {QUADRATIC!r}, "
                         f"got {distribution!r}")
    if distribution == QUADRATIC and lo != -hi:
        raise ValueError(f"lo must equal -hi for a quadratic grid, got [{lo!r}, {hi!r}]")


def make_grid(lo: float, hi: float, n: int, distribution: str = UNIFORM) -> ValueGrid:
    """Construct a position-code grid over [lo, hi] with n bins.

    Uniform grids have step (hi-lo)/(n-1).  Quadratic grids place n
    uniformly spaced points u over [-sqrt(hi), sqrt(hi)] and use
    sign(u)*u^2, which densifies bins around zero; they require a
    symmetric range (lo == -hi).

    Raises ValueError, naming the argument, for a grid check_grid rejects.
    """
    check_grid(lo, hi, n, distribution)
    lo, hi = float(lo), float(hi)

    symmetric = lo == -hi
    if distribution == UNIFORM:
        if symmetric and n % 2 == 1:
            # Mirror an exact positive half so 0.0 and +/- pairs are exact.
            half = _linspace(0.0, hi, (n + 1) // 2)
            vals = _mirrored_levels(half)
        else:
            vals = _linspace(lo, hi, n)
    else:  # QUADRATIC, on the symmetric range check_grid requires
        a = math.sqrt(hi)
        if n % 2 == 1:
            u_half = _linspace(0.0, a, (n + 1) // 2)
            half = [u * u for u in u_half]
            half[-1] = hi
            vals = _mirrored_levels(half)
        else:
            u = _linspace(-a, a, n)
            vals = [math.copysign(x * x, x) for x in u]
            vals[0], vals[-1] = lo, hi

    for a, b in zip(vals, vals[1:]):
        if not (a < b):
            raise ValueError("grid values are not strictly increasing")
    return ValueGrid(lo=lo, hi=hi, n=n, distribution=distribution, values=tuple(vals))


def encode(grid: ValueGrid, x: float) -> int:
    """Winner-takes-all bin index for x: argmin_i |x - values[i]|.

    Out-of-range inputs clamp to the end bins; exact midpoint ties break
    toward the lower index.  NaN is rejected.
    """
    if math.isnan(x):
        raise ValueError("cannot encode NaN")
    # bisect_left on midpoints: x == boundary[i] lands at bin i, which
    # realizes the tie-toward-lower-index rule; clamping is implicit.
    return bisect_left(grid._boundaries, x)


def nan_input(**inputs) -> ValueError:
    """The error for a tick whose encode raised: it names the first of
    the inputs (name=value) that is NaN.  Callers build it only after
    encode has raised, so a finite tick does no extra work."""
    name = next(k for k, x in inputs.items() if math.isnan(x))
    return ValueError(f"{name} must not be NaN, got {inputs[name]!r}")


def bin_rows(bins, grid: ValueGrid) -> list[memoryview]:
    """A 2-d array of bins of grid as one read-only memoryview per row,
    over a copy in the narrowest unsigned dtype that holds every bin
    (uint8 up to 256 bins), so indexing a row returns a Python int and
    assigning into one raises TypeError.  This is the format of the
    two-input stage maps that PidOracle and NpidNetwork tick on."""
    rows = np.asarray(bins).astype(np.min_scalar_type(grid.n - 1))
    rows.flags.writeable = False
    return [memoryview(row) for row in rows]
