"""Single-mode dynamics of the compressed beam.

Projecting the beam equation onto the k-th spatial Fourier mode gives the
cubic oscillator

    theta'' + k^2 (k^2 - P) theta + k^4 theta^3 = 0

for the time coefficient theta(t), where P is the axial load.  Its energy

    E = theta'^2 / 2 + k^2 (k^2 - P) theta^2 / 2 + k^4 theta^4 / 4

is conserved and organizes the phase portrait:

* k^2 >= P: single-well potential; every nontrivial orbit has E > 0 and
  oscillates through zero with amplitude sqrt(Lambda_hi).
* k^2 < P: double well with bottom energy -(P - k^2)^2 / 4 at the constant
  solutions +-sqrt(P - k^2)/k.  Orbits with negative energy stay on one
  side of the well; E = 0 carries the homoclinic orbit
  theta(t) = sqrt(2) sqrt(P - k^2) / (k cosh(k sqrt(P - k^2) t)) and the
  unstable rest point theta == 0; E > 0 orbits cross the hump.

Every period is a closed elliptic-K form, evaluated by the AGM on
whichever of the modulus or its complement has no cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, require_finite, require_positive_int
from .special import elliptic_k, elliptic_k_from_complement, jacobi_sn_cn_dn

# Regime classification tolerance; scales with the energy magnitude.
_CLASSIFY_TOL = 1e-13


class EnergyRegime(Enum):
    """Qualitative type of a constant-energy set of the mode oscillator."""

    POSITIVE = "positive"              # sign-changing periodic orbit
    NEGATIVE_WELL = "negative-well"    # one-signed periodic orbit inside a well
    BOTTOM_OF_WELL = "bottom-of-well"  # constant solution at a well minimum
    HOMOCLINIC = "homoclinic"          # non-periodic separatrix orbit
    TRIVIAL = "trivial"                # theta == 0 equilibrium


@dataclass(frozen=True)
class ModeParams:
    """Spatial frequency k (a positive integer) and axial load P."""

    k: int
    P: float

    def __post_init__(self):
        require_positive_int("mode number", self.k)
        require_finite("load P", self.P)
        # the well depth and every period formula square P - k^2
        try:
            gap = self.P - self.k**2
        except OverflowError:            # k^2 is past the float range
            gap = math.inf
        require_finite("(P - k^2)^2", gap * gap)

    @property
    def stiffness(self) -> float:
        """Linearized stiffness k^2 (k^2 - P); negative inside a double well."""
        return self.k**2 * (self.k**2 - self.P)

    @property
    def has_well(self) -> bool:
        return self.k**2 < self.P

    @property
    def well_bottom(self) -> float:
        """Minimum energy -(P - k^2)^2 / 4; only meaningful when k^2 < P."""
        if not self.has_well:
            raise DomainError(f"mode k={self.k} has no well at P={self.P}")
        return -0.25 * (self.P - self.k**2) ** 2

    @property
    def floor_energy(self) -> float:
        """Lowest admissible energy: well bottom if present, else 0."""
        return self.well_bottom if self.has_well else 0.0


@dataclass(frozen=True)
class EnergyLevel:
    value: float
    regime: EnergyRegime


def energy_of(params: ModeParams, alpha: float, beta: float) -> EnergyLevel:
    """Energy and regime of the orbit through theta = alpha, theta' = beta.

    Exact rest is TRIVIAL on every mode; any other state takes the regime
    classify_energy gives its energy.
    """
    k2 = params.k**2
    E = 0.5 * beta * beta + 0.5 * k2 * (k2 - params.P) * alpha * alpha \
        + 0.25 * k2 * k2 * alpha**4
    if alpha == 0.0 and beta == 0.0:
        return EnergyLevel(E, EnergyRegime.TRIVIAL)
    return EnergyLevel(E, classify_energy(params, E))


def classify_energy(params: ModeParams, E: float) -> EnergyRegime:
    """Regime of the orbits at energy E."""
    gap = params.P - params.k * params.k     # positive iff the mode has a well
    # the turning-point discriminant: finite iff 4E is, (P - k^2)^2 being so
    disc = 4.0 * E + gap * gap
    if not math.isfinite(disc):
        require_finite("energy", E)
        require_finite("4E + (P - k^2)^2", disc)
    tol = _CLASSIFY_TOL * (1.0 + abs(E))
    if gap <= 0.0:
        if abs(E) <= tol:
            return EnergyRegime.TRIVIAL
        if E < 0.0:
            raise DomainError(
                f"mode k={params.k}, P={params.P} admits no orbit at E={E!r}"
            )
        return EnergyRegime.POSITIVE
    bottom = -0.25 * gap * gap               # params.well_bottom, bit for bit
    if E - bottom < -tol:
        raise DomainError(f"energy {E!r} lies below the well bottom {bottom}")
    if E - bottom <= tol:
        return EnergyRegime.BOTTOM_OF_WELL
    if abs(E) <= tol:
        return EnergyRegime.HOMOCLINIC
    return EnergyRegime.NEGATIVE_WELL if E < 0.0 else EnergyRegime.POSITIVE


class TurningRoots(NamedTuple):
    """Roots of the turning-point quadratic in theta^2.

    theta'^2 = (k^4/2) (hi - theta^2)(theta^2 - lo); the orbit sweeps
    theta^2 over [max(lo, 0), hi].  lo < 0 exactly for sign-changing
    orbits, 0 < lo < hi for one-signed well orbits.
    """

    lo: float
    hi: float


def turning_roots(params: ModeParams, E: float) -> TurningRoots:
    classify_energy(params, E)               # rejects inadmissible energies
    k2 = params.k**2
    gap = params.P - k2                      # positive inside a double well
    s = math.sqrt(max(gap * gap + 4.0 * E, 0.0))
    # The root of larger magnitude adds gap and s without cancellation; the
    # other is the product of the roots, -4E/k^4, over it.  At E = 0 that
    # root is an exact zero, also at P = k^2, where both roots vanish.
    if gap >= 0.0:
        hi = (gap + s) / k2
        lo = -4.0 * E / (k2 * (gap + s)) if E else 0.0
    else:
        lo = (gap - s) / k2
        hi = -4.0 * E / (k2 * (gap - s))
    return TurningRoots(lo=lo, hi=hi)


@dataclass(frozen=True)
class DuffingOrbit:
    """A periodic orbit of one beam mode, in canonical phase.

    The orbit starts at a turning point with theta' = 0: at +amplitude for
    sign-changing orbits, at the inner turning point +sqrt(sq_min) for well
    orbits, at the constant value for bottom-of-well solutions.  sign = -1
    selects the mirrored orbit -theta (only distinct for one-signed ones).
    """

    params: ModeParams
    energy: EnergyLevel
    sq_lo: float      # lower root of the turning quadratic (may be negative)
    sq_hi: float      # upper root = squared amplitude
    period: float
    sign: int = 1

    @property
    def amplitude(self) -> float:
        return math.sqrt(self.sq_hi)

    @property
    def sq_min(self) -> float:
        """Minimum of theta^2 along the orbit."""
        return max(self.sq_lo, 0.0)

    @property
    def sign_changing(self) -> bool:
        return self.energy.regime is EnergyRegime.POSITIVE

    @property
    def modulus(self) -> float | None:
        """sqrt(sq_min / sq_hi) for one-signed orbits, else None."""
        if self.sq_lo <= 0.0:
            return None
        return math.sqrt(self.sq_lo / self.sq_hi)

    @property
    def initial_state(self) -> tuple[float, float]:
        if self.energy.regime is EnergyRegime.POSITIVE:
            theta0 = self.amplitude
        else:
            theta0 = math.sqrt(self.sq_min)
        return (self.sign * theta0, 0.0)

    @property
    def coefficient_period(self) -> float:
        """Period of theta^2: half the orbit period iff the orbit changes sign."""
        return 0.5 * self.period if self.sign_changing else self.period

    def states(self, ts) -> np.ndarray:
        """(theta, theta') at the times ts in closed form, shape (len(ts), 2):
        A cn(w t) if the orbit changes sign, else A kp / dn(w t) = A dn(w t + K),
        the dn orbit started at its inner turning point as initial_state is;
        kp and w are those of period_of."""
        k, E, A = float(self.params.k), self.energy.value, self.amplitude
        gap = k * k - self.params.P
        root = math.sqrt(4.0 * E + gap * gap)
        if self.sign_changing:
            omega = k * math.sqrt(root)
            kp = math.sqrt(2.0 * E / (root * (root - gap)) if gap < 0.0
                           else 0.5 + gap / (2.0 * root))
        else:
            omega = k * math.sqrt(0.5 * (root - gap))
            kp = 2.0 * math.sqrt(-E) / (root - gap)
        sn, cn, dn = jacobi_sn_cn_dn(omega * np.asarray(ts, dtype=float), kp)
        if self.sign_changing:
            return self.sign * np.column_stack((A * cn, -A * omega * sn * dn))
        theta = A * kp / dn
        return self.sign * np.column_stack(
            (theta, theta * omega * (1.0 - kp) * (1.0 + kp) * sn * cn / dn))


def duffing_rhs(params: ModeParams) -> Callable[[float, np.ndarray], np.ndarray]:
    """Vector field of the mode oscillator on (theta, theta')."""
    stiffness = params.stiffness
    quartic = float(params.k) ** 4

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        theta = y[0]
        return np.array([y[1], -(stiffness + quartic * theta * theta) * theta])

    return rhs


def period_of(params: ModeParams, E: float) -> float:
    """Period of the mode orbit at energy E.

    With gap = k^2 - P and X = 4 E + gap^2, orbits with E > 0 have

        T = 4 / (k X^(1/4)) K(kappa),  kappa^2 = 1/2 - gap / (2 sqrt(X)),

    and kappa lies in [0, 1) for every E > 0, in [0, 1/sqrt(2)] when
    gap >= 0.  When the mode has a well (gap < 0), kappa -> 1 as E -> 0+,
    so K is taken from the complementary parameter
    1 - kappa^2 = 2 E / (sqrt(X) (sqrt(X) - gap)), which has no
    cancellation (DLMF 19.8).  Well orbits (E < 0) have

        T = 2 sqrt(2) / (k sqrt(P - k^2 + s)) K'(delta),
        s = sqrt((P - k^2)^2 + 4 E),  delta^2 = -4 E / (P - k^2 + s)^2,

    where K'(delta) = K(sqrt(1 - delta^2)) is the turning-point integral.
    The limits are T -> 2 pi / (k sqrt(k^2 - P)) as E -> 0+ (infinite when
    k^2 = P), T -> pi sqrt(2) / (k sqrt(P - k^2)) at the well bottom, and
    T -> 0 as E -> infinity.
    """
    regime = classify_energy(params, E)
    k = float(params.k)
    if regime is EnergyRegime.POSITIVE:
        gap = k * k - params.P
        root = math.sqrt(4.0 * E + gap * gap)
        scale = 4.0 / (k * math.sqrt(root))
        if gap < 0.0:
            return scale * elliptic_k_from_complement(
                math.sqrt(2.0 * E / (root * (root - gap))))
        return scale * elliptic_k(math.sqrt(0.5 - gap / (2.0 * root)))
    if regime is EnergyRegime.BOTTOM_OF_WELL:
        # Limiting period of the surrounding small oscillations.
        return math.pi * math.sqrt(2.0) / (k * math.sqrt(params.P - k * k))
    if regime is EnergyRegime.HOMOCLINIC:
        raise DomainError("the homoclinic orbit is not periodic")
    if regime is EnergyRegime.TRIVIAL:
        raise DomainError(
            f"mode k={params.k}, P={params.P}: the trivial orbit theta == 0 at "
            f"E={E!r} has no period"
        )
    gap = params.P - k * k
    s = math.sqrt(gap * gap + 4.0 * E)
    delta = 2.0 * math.sqrt(-E) / (gap + s)
    return 2.0 * math.sqrt(2.0) / (k * math.sqrt(gap + s)) \
        * elliptic_k_from_complement(delta)


def orbit_from_energy(params: ModeParams, E: float, sign: int = 1) -> DuffingOrbit:
    """Canonical periodic orbit at energy E.

    Raises for energies with no periodic orbit: E <= 0 without a well,
    E <= bottom or E = 0 with one.  The exact bottom is the constant
    solution; build it with constant_orbit.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    regime = classify_energy(params, E)
    if regime is EnergyRegime.BOTTOM_OF_WELL:
        raise DomainError(
            "the bottom of the well is a constant solution; use constant_orbit"
        )
    if regime is EnergyRegime.HOMOCLINIC:
        raise DomainError("E = 0 with a well carries no periodic orbit")
    roots = turning_roots(params, E)
    return DuffingOrbit(
        params=params,
        energy=EnergyLevel(E, regime),
        sq_lo=roots.lo,
        sq_hi=roots.hi,
        period=period_of(params, E),
        sign=sign,
    )


def constant_orbit(params: ModeParams) -> DuffingOrbit:
    """The constant solution +sqrt(P - k^2)/k at the bottom of the well.

    Its period field carries the limiting period of the surrounding
    oscillations, which is the natural coefficient period for linearized
    problems built on top of it.
    """
    if not params.has_well:
        raise DomainError(f"mode k={params.k} has no well at P={params.P}")
    c_sq = (params.P - params.k**2) / params.k**2
    bottom = params.well_bottom
    return DuffingOrbit(
        params=params,
        energy=EnergyLevel(bottom, EnergyRegime.BOTTOM_OF_WELL),
        sq_lo=c_sq,
        sq_hi=c_sq,
        period=period_of(params, bottom),
    )


def homoclinic(params: ModeParams, t):
    """The separatrix orbit sqrt(2) sqrt(P - k^2) / (k cosh(k sqrt(P - k^2) t)).

    Defined only for k^2 < P; accepts finite scalar or array times.
    """
    if not params.has_well:
        raise DomainError(
            f"homoclinic orbit requires k^2 < P, got k={params.k}, P={params.P}"
        )
    if not np.all(np.isfinite(t)):
        raise DomainError("homoclinic times must be finite")
    rate = params.k * math.sqrt(params.P - params.k**2)
    peak = math.sqrt(2.0) * math.sqrt(params.P - params.k**2) / params.k
    return peak / np.cosh(rate * np.asarray(t, dtype=float)) if np.ndim(t) else \
        peak / math.cosh(rate * t)


def energy_from_initial_amplitude(params: ModeParams, theta0: float) -> float:
    """Energy of the orbit through (theta0, 0)."""
    return energy_of(params, theta0, 0.0).value
