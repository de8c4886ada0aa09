"""Stationary (time-independent) beam profiles under load P.

For P in (k^2, (k+1)^2] the beam has exactly 2k + 1 stationary profiles:
the flat state u == 0 and the pure-mode pairs

    +-u_j(x) = +- (sqrt(P - j^2) / j) sin(j x),   j = 1, ..., k,

with static energy J0(+-u_j) = -(pi/8)(P - j^2)^2 and Morse index j - 1
(the flat state has index k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class StationarySolution:
    """One stationary profile amplitude * sin(j x); j = 0 is the flat state
    (sign 0), mode profiles come in +- pairs (sign +1 / -1)."""

    j: int
    sign: int
    amplitude: float
    energy: float
    morse_index: int

    def profile(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.j == 0:
            return np.zeros_like(x)
        return self.sign * self.amplitude * np.sin(self.j * x)

    def to_dict(self) -> dict:
        return {"j": self.j, "sign": self.sign, "amplitude": self.amplitude,
                "energy": self.energy, "morse_index": self.morse_index}


def _mode_count(P: float) -> int:
    # Largest j with j^2 < P, in integer arithmetic: j^2 < P iff
    # j^2 <= ceil(P) - 1 for integer j and P > 0.
    return math.isqrt(math.ceil(P) - 1)


def stationary_catalog(P: float) -> list[StationarySolution]:
    """All stationary profiles at finite load P > 0, flat state first, then
    the +-pairs ordered by increasing j."""
    if not 0.0 < P < math.inf:
        raise DomainError(f"stationary catalog requires finite P > 0, got {P!r}")
    k = _mode_count(P)
    catalog = [StationarySolution(j=0, sign=0, amplitude=0.0, energy=0.0,
                                  morse_index=k)]
    for j in range(1, k + 1):
        amplitude = math.sqrt(P - j * j) / j
        energy = -(math.pi / 8.0) * (P - j * j) ** 2
        for sign in (1, -1):
            catalog.append(StationarySolution(j=j, sign=sign,
                                              amplitude=amplitude,
                                              energy=energy,
                                              morse_index=j - 1))
    return catalog


def residual_check(solution: StationarySolution, P: float,
                   x_grid: np.ndarray) -> float:
    """Largest pointwise residual of the stationary equation

        u'''' + [P - (2/pi) ||u'||^2] u'' = 0

    on the grid, using the closed form ||u'||^2 = (pi/2) amplitude^2 j^2
    for a pure-mode profile.
    """
    x = np.asarray(x_grid, dtype=float)
    if x.size == 0:
        raise DomainError("x_grid must be non-empty")
    if solution.j == 0:
        return 0.0
    j = solution.j
    A = solution.sign * solution.amplitude
    norm_sq_scaled = A * A * j * j          # (2/pi) ||u'||^2
    s = np.sin(j * x)
    residual = A * j**4 * s - (P - norm_sq_scaled) * A * j * j * s
    return float(np.max(np.abs(residual)))
