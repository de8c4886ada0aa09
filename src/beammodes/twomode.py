"""Coupled dynamics of two beam modes and the energy exchanged between them.

Restricting the beam to two spatial modes m and n with time coefficients
w(t) and z(t) gives the conservative system

    w'' + m^2 (m^2 - P) w + m^2 (m^2 w^2 + n^2 z^2) w = 0
    z'' + n^2 (n^2 - P) z + n^2 (m^2 w^2 + n^2 z^2) z = 0

with total energy

    E = w'^2/2 + z'^2/2 + U(w, z),
    U = m^2 (m^2 - P) w^2/2 + n^2 (n^2 - P) z^2/2
        + m^4 w^4/4 + n^4 z^4/4 + m^2 n^2 w^2 z^2 / 2.

Splitting E into the two single-mode energies plus the interaction term
m^2 n^2 w^2 z^2 / 2 gives per-channel histories whose sum is constant;
watching the z channel grow from a tiny seed is the direct, nonlinear
counterpart of the Hill-equation instability of the pure-w orbit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import IO

import numpy as np

from .errors import DomainError, require_positive_int
from .integrate import IntegratorConfig, Trajectory, integrate

DEFAULT_TRANSFER_THRESHOLD = 100.0

CSV_COLUMNS = ("t", "w", "w_dot", "z", "z_dot", "E_w", "E_z", "E_wz")


@dataclass(frozen=True)
class TwoModeConfig:
    """Mode pair, load, and initial data (w, w', z, z') at t = 0."""

    m: int
    n: int
    P: float
    w0: float
    w1: float
    z0: float
    z1: float

    def __post_init__(self):
        require_positive_int("m", self.m)
        require_positive_int("n", self.n)
        if self.m == self.n:
            raise DomainError("the two modes must be distinct")
        if not math.isfinite(self.P):
            raise DomainError("load P must be finite")

    def initial_state(self) -> np.ndarray:
        return np.array([self.w0, self.w1, self.z0, self.z1])


def two_mode_rhs(config: TwoModeConfig):
    m2 = float(config.m**2)
    n2 = float(config.n**2)
    km = m2 * (m2 - config.P)
    kn = n2 * (n2 - config.P)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        w, wd, z, zd = y
        shared = m2 * w * w + n2 * z * z
        return np.array([wd, -(km + m2 * shared) * w,
                         zd, -(kn + n2 * shared) * z])

    return rhs


@dataclass(frozen=True)
class EnergyChannels:
    """Per-channel energy histories sampled along a trajectory.

    e_w and e_z are the single-mode energies of w and z alone, e_wz the
    interaction energy m^2 n^2 w^2 z^2 / 2.  Their sum is the conserved
    total at every sample.
    """

    times: np.ndarray
    e_w: np.ndarray
    e_z: np.ndarray
    e_wz: np.ndarray
    total: float

    @property
    def drift(self) -> float:
        """Largest relative deviation of the sampled sum from the total."""
        sums = self.e_w + self.e_z + self.e_wz
        scale = max(abs(self.total), 1e-300)
        return float(np.max(np.abs(sums - self.total)) / scale)


def channel_energies(config: TwoModeConfig, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m2 = float(config.m**2)
    n2 = float(config.n**2)
    w, wd, z, zd = states[:, 0], states[:, 1], states[:, 2], states[:, 3]
    e_w = 0.5 * wd * wd + 0.5 * m2 * (m2 - config.P) * w * w + 0.25 * m2 * m2 * w**4
    e_z = 0.5 * zd * zd + 0.5 * n2 * (n2 - config.P) * z * z + 0.25 * n2 * n2 * z**4
    e_wz = 0.5 * m2 * n2 * w * w * z * z
    return e_w, e_z, e_wz


def total_energy(config: TwoModeConfig) -> float:
    state = config.initial_state()[None, :]
    e_w, e_z, e_wz = channel_energies(config, state)
    return float(e_w[0] + e_z[0] + e_wz[0])


@dataclass(frozen=True)
class SimulationResult:
    config: TwoModeConfig
    trajectory: Trajectory
    channels: EnergyChannels


def simulate(
    config: TwoModeConfig,
    t_end: float,
    integrator: IntegratorConfig = IntegratorConfig(),
) -> SimulationResult:
    """Integrate the two-mode system over [0, t_end] and sample channels.

    Channel histories are taken at the accepted step points.  The pure
    subspaces are exactly invariant: a zero z seed stays identically zero.
    """
    if not 0.0 < t_end < math.inf:
        raise DomainError(f"t_end must be positive and finite, got {t_end!r}")
    rhs = two_mode_rhs(config)
    trajectory = integrate(rhs, config.initial_state(), (0.0, t_end), integrator)
    e_w, e_z, e_wz = channel_energies(config, trajectory.states)
    channels = EnergyChannels(times=trajectory.times, e_w=e_w, e_z=e_z,
                              e_wz=e_wz, total=total_energy(config))
    return SimulationResult(config=config, trajectory=trajectory, channels=channels)


class TransferVerdict(Enum):
    TRANSFER_OBSERVED = "transfer-observed"
    NO_TRANSFER = "no-transfer"


@dataclass(frozen=True)
class TransferReport:
    """Departure of the z channel from its seed energy, as a ratio.

    The 100x default threshold is a reporting convention for "energy
    moved", not a theorem constant; pick another threshold when comparing
    against a different instability margin.
    """

    max_ratio: float
    time_of_max: float
    threshold: float
    verdict: TransferVerdict

    def to_dict(self) -> dict:
        return {
            "max_ratio": self.max_ratio,
            "time_of_max": self.time_of_max,
            "threshold": self.threshold,
            "verdict": self.verdict.value,
        }


def transfer_report(
    channels: EnergyChannels,
    threshold: float = DEFAULT_TRANSFER_THRESHOLD,
) -> TransferReport:
    """Peak 1 + |E_z(t) - E_z(0)| / E_z(0) over the sampled history.

    While E_z grows this is the plain ratio E_z(t)/E_z(0).  Measuring the
    departure instead also sees transfer into a mode n with a well of its
    own (n^2 < P): once z falls into that well, E_z turns negative.
    """
    if not 0.0 < threshold < math.inf:
        raise DomainError(f"threshold must be positive and finite, got {threshold!r}")
    seed = float(channels.e_z[0])
    if seed <= 0.0:
        raise DomainError("transfer ratio needs a positive z seed energy")
    ratios = 1.0 + np.abs(channels.e_z - seed) / seed
    i = int(np.argmax(ratios))
    ratio = float(ratios[i])
    verdict = (TransferVerdict.TRANSFER_OBSERVED if ratio > threshold
               else TransferVerdict.NO_TRANSFER)
    return TransferReport(max_ratio=ratio, time_of_max=float(channels.times[i]),
                          threshold=threshold, verdict=verdict)


def write_channels_csv(stream: IO[str], result: SimulationResult) -> None:
    """Write t, w, w_dot, z, z_dot, E_w, E_z, E_wz rows; floats round-trip."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    t = result.trajectory.times
    s = result.trajectory.states
    ch = result.channels
    for i in range(len(t)):
        writer.writerow([
            repr(float(t[i])),
            repr(float(s[i, 0])), repr(float(s[i, 1])),
            repr(float(s[i, 2])), repr(float(s[i, 3])),
            repr(float(ch.e_w[i])), repr(float(ch.e_z[i])), repr(float(ch.e_wz[i])),
        ])
