"""Level-n band machinery and the excursion-start case analysis.

For a band level n the solution lives in the annulus (2^-n, 2^n) of the
max norm.  An excursion starts at x = 0 with the state outside the inner
radius, which forces |y0| or |z0| to exceed 2^-n and splits the start
into the cases below (states with y0 < 0 are mapped through the sign
symmetry (x, y, z) -> (-x, -y, -z) first and tagged as reflected):

    I        y0 > 0 and |z0| <= 2^-n  (boundary ties included here)
    II       y0 > 0 and z0 < -2^-n
    III      y0 > 0 and z0 > 2^-n
    IV+/IV-  y0 = 0 and z0 > 2^-n / z0 < -2^-n

Case IV- runs on the same machinery as IV+ after reflection.  The case
headers III and IV are sometimes written interchangeably elsewhere; the
split above is the one that makes the y0 > 0 trichotomy and the y0 = 0
pair exhaustive.

Each case carries a deterministic window on which pathwise lower bounds
for Y and X hold: t0n = 2^-2n / 2 always; additionally beta / 2^(n+1)
with beta = y0 for case II, and the random time Tn (first grid time the
last coordinate falls to 2^-n / 2) caps the window for cases III/IV.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import ChainState
from .integrator import Trajectory, linf_norm

__all__ = [
    "CaseKind",
    "CaseLabel",
    "StoppingBand",
    "classify",
    "guaranteed_window",
    "detect_Tn",
]


class CaseKind(enum.Enum):
    CASE_I = "I"
    CASE_II = "II"
    CASE_III = "III"
    CASE_IV_ZPOS = "IV+"
    CASE_IV_ZNEG = "IV-"


@dataclass(frozen=True)
class CaseLabel:
    """Case of an excursion start, with the reflection bookkeeping.

    `reflected` marks starts that were mapped by the sign symmetry before
    classification (y0 < 0).  `uses_reflected_frame` tells verifiers to
    check the bounds on the negated trajectory; it also covers case IV-,
    whose machinery is the reflection of IV+.
    """

    kind: CaseKind
    reflected: bool = False

    @property
    def uses_reflected_frame(self) -> bool:
        return self.reflected or self.kind is CaseKind.CASE_IV_ZNEG

    def reflected_label(self) -> "CaseLabel":
        """Label of the sign-reflected start."""
        if self.kind is CaseKind.CASE_IV_ZPOS:
            return CaseLabel(CaseKind.CASE_IV_ZNEG, self.reflected)
        if self.kind is CaseKind.CASE_IV_ZNEG:
            return CaseLabel(CaseKind.CASE_IV_ZPOS, self.reflected)
        return CaseLabel(self.kind, not self.reflected)

    def __str__(self) -> str:
        return self.kind.value + ("r" if self.reflected else "")


@dataclass(frozen=True)
class StoppingBand:
    """Radii and deterministic windows of the level-n band."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"band level must be >= 1, got {self.n}")

    @property
    def inner(self) -> float:
        return 2.0**-self.n

    @property
    def outer(self) -> float:
        return 2.0**self.n

    @property
    def t0n(self) -> float:
        return 0.5 * 2.0 ** (-2 * self.n)


def classify(initial: ChainState, n: int) -> CaseLabel:
    """Case of an excursion start (x0 = 0, outside the inner radius)."""
    inner = StoppingBand(n).inner
    if initial.dim != 3:
        raise ValueError("case analysis is defined for chain order 3 only")
    if initial.x != 0.0:
        raise ValueError(f"an excursion starts at x = 0, got x = {initial.x}")
    if linf_norm(initial) <= inner:
        raise ValueError(
            f"initial state is inside the inner band: |.|_inf = {linf_norm(initial)} <= {inner}"
        )
    y0, z0 = initial.y, initial.z
    if y0 < 0.0:
        return CaseLabel(classify(initial.reflected(), n).kind, reflected=True)
    if y0 == 0.0:
        # x0 = 0 and the norm precondition force |z0| > 2^-n here
        kind = CaseKind.CASE_IV_ZPOS if z0 > 0.0 else CaseKind.CASE_IV_ZNEG
        return CaseLabel(kind)
    if abs(z0) <= inner:
        return CaseLabel(CaseKind.CASE_I)
    if z0 < 0.0:
        return CaseLabel(CaseKind.CASE_II)
    return CaseLabel(CaseKind.CASE_III)


def guaranteed_window(label: CaseLabel, initial: ChainState, n: int) -> float:
    """Deterministic part of the window on which the case bounds hold.

    t0n for cases I, III, IV; t0n ^ beta/2^(n+1) for case II.  The Tn cap
    of cases III/IV is per-path and applied by the verifier.
    """
    band = StoppingBand(n)
    if label.kind is CaseKind.CASE_II:
        return min(band.t0n, abs(initial.y) * 2.0 ** -(n + 1))
    return band.t0n


def detect_Tn(traj: Trajectory, n: int) -> float | None:
    """First grid time the last coordinate hits 2^-n / 2 (sign-symmetric).

    For z0 > 0 this is the first grid time with z <= 2^-n / 2; for
    z0 < 0, the first with z >= -2^-n / 2.  None if it never happens
    within the stored trajectory.
    """
    level = 0.5 * StoppingBand(n).inner
    z = traj.z
    hits = z <= level if z[0] > 0.0 else z >= -level
    if not hits.any():
        return None
    return float(traj.times[int(hits.argmax())])
