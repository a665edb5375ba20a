"""State, parameters, and coefficient algebra for the triangular noise chain.

The model is a d-coordinate chain (d = 2 or 3) in which noise enters only
the last coordinate and propagates to the first through integration:

    dX = Y dt,   dY = Z dt,   dZ = |X|^alpha dB        (d = 3)
    dX = Y dt,   dY = |X|^alpha dB                     (d = 2)

with Holder exponent alpha in (0, 1).  This module owns the immutable
value types shared by the solvers and the closed-form pieces: the
diffusion coefficient |x|^alpha, the mean-value upper bound used in
divergence estimates, and the exact flow of the drift subsystem with the
last coordinate frozen.  The coefficient and the one-step scheme update
are defined here once (`_abs_pow`, `_advance`) for floats and numpy rows
alike; the public functions and the integrator's Python step bodies
evaluate them, and its C step repeats them operation for operation.
All arithmetic is 64-bit binary floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainState",
    "SystemParams",
    "diffusion_coeff",
    "mvt_bound",
    "drift_flow",
]


@dataclass(frozen=True)
class ChainState:
    """Solution vector (x, y) or (x, y, z) at one time point.

    Coordinates must be finite unless the state is explicitly flagged as
    blown up (the solver uses the flag when a step overflows).
    """

    t: float
    coords: tuple[float, ...]
    blown_up: bool = False

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise ValueError(f"time must be finite and >= 0, got {self.t}")
        if len(self.coords) not in (2, 3):
            raise ValueError(f"chain order must be 2 or 3, got {len(self.coords)} coordinates")
        if not self.blown_up and not all(math.isfinite(c) for c in self.coords):
            raise ValueError(f"non-finite coordinates {self.coords} without blowup flag")

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def x(self) -> float:
        return self.coords[0]

    @property
    def y(self) -> float:
        return self.coords[1]

    @property
    def z(self) -> float:
        if len(self.coords) != 3:
            raise ValueError("z is only defined for chain order 3")
        return self.coords[2]

    def reflected(self) -> "ChainState":
        """Image under the sign symmetry (x, y, z) -> (-x, -y, -z)."""
        return ChainState(self.t, tuple(-c for c in self.coords), self.blown_up)

    def is_origin(self) -> bool:
        return all(c == 0.0 for c in self.coords)


@dataclass(frozen=True)
class SystemParams:
    """Holder exponent, chain order, and initial state of one system.

    alpha may be anywhere in (0, 1) so sub-threshold exponents can be
    explored; the initial state must not be the origin.
    """

    alpha: float
    chain_order: int
    initial: ChainState

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.chain_order not in (2, 3):
            raise ValueError(f"chain_order must be 2 or 3, got {self.chain_order}")
        if self.initial.dim != self.chain_order:
            raise ValueError(
                f"initial state has {self.initial.dim} coordinates, expected {self.chain_order}"
            )
        if self.initial.t != 0.0:
            raise ValueError(f"initial state must be at t = 0, got t = {self.initial.t}")
        if self.initial.is_origin():
            raise ValueError("initial state must not be the origin")


def _abs_pow(x, alpha):
    """|x|^alpha as exp(alpha * ln|x|), for a float or a numpy row.

    This is the one evaluation of the coefficient: the public
    `diffusion_coeff` and the integrator's Python step bodies call it.
    ln 0 = -inf gives exactly 0.0 at the origin; callers evaluate it
    under np.errstate(divide="ignore").
    """
    return np.exp(alpha * np.log(abs(x)))


def diffusion_coeff(x: float, alpha: float) -> float:
    """Noise coefficient |x|^alpha, exactly 0.0 at the origin."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    with np.errstate(divide="ignore"):
        return float(_abs_pow(x, alpha))


def mvt_bound(a: float, b: float, alpha: float) -> float:
    """Upper bound alpha * a**(alpha - 1) * (b - a) for b**alpha - a**alpha.

    Valid for 0 < a < b: the derivative of x**alpha is decreasing, so the
    mean-value slope is at most the slope at a.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError(f"a must be finite and > 0, got {a}")
    if not (b > a and math.isfinite(b)):
        raise ValueError(f"b must be finite and > a, got {b}")
    return alpha * a ** (alpha - 1.0) * (b - a)


def _advance(coords, h, dlast, exact):
    """The scheme update of (x, y) or (x, y, z) over a step h.

    The last coordinate adds dlast.  With `exact` the drift rows take their
    exact flow (x + h y + (h^2/2) z, y + h z); otherwise forward Euler
    (x + h y, y + h z).  At chain order 2 both read (x + h y, y + dlast).
    The coordinates are floats or numpy rows (one entry per path): this
    one source is the arithmetic of `step`, `drift_flow` and the
    integrator's Python step bodies, so they round alike.
    """
    if len(coords) == 2:
        x, y = coords
        return x + h * y, y + dlast
    x, y, z = coords
    if exact:
        return x + h * y + (0.5 * (h * h)) * z, y + h * z, z + dlast
    return x + h * y, y + h * z, z + dlast


def drift_flow(state: ChainState, h: float) -> ChainState:
    """Advance the drift subsystem by h with the last coordinate frozen.

    The drift rows form a nilpotent linear chain, so the flow is an exact
    polynomial: for order 3, (x, y, z) maps to
    (x + y h + z h^2/2, y + z h, z); for order 2, (x + y h, y).
    Exact up to floating-point rounding of the handful of operations.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h must be finite and > 0, got {h}")
    if state.blown_up:
        raise ValueError("cannot advance a blown-up state")
    # adding -0.0 leaves the last coordinate bitwise as it is, -0.0 included
    return ChainState(state.t + h, _advance(state.coords, h, -0.0, True))
