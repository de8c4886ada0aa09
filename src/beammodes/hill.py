"""Linear stability of one beam mode against another.

Perturbing a periodic mode-m orbit theta(t) in the direction of mode n
(n != m) decouples, and the perturbation xi obeys the Hill equation

    xi'' + a(t) xi = 0,    a(t) = n^2 (n^2 - P) + m^2 n^2 theta(t)^2.

The coefficient period is half the orbit period for sign-changing orbits
(theta^2 there has half the period of theta) and the full period for
one-signed well orbits.  Stability is read off the monodromy matrix M of
the coefficient period: det M = 1, so |trace M| < 2 means bounded
solutions (multipliers on the unit circle) and |trace M| > 2 exponential
growth.  Two sufficient stability criteria and one sufficient instability
criterion cross-check that verdict; whenever one of them applies, the
monodromy verdict must agree.  The one integration that yields the
monodromy also carries the coefficient integrals the Li-Zhang criterion
needs, so a classified cell integrates its orbit once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .duffing import (
    DuffingOrbit,
    EnergyRegime,
    ModeParams,
    classify_energy,
    constant_orbit,
    duffing_rhs,
    orbit_from_energy,
)
from .errors import (ConsistencyError, DomainError, NumericalQualityError,
                     require_positive_int)
from .integrate import IntegratorConfig, integrate
from .special import sigma_constant

# |trace| within this margin of 2 is reported Marginal rather than forced
# into a side: Floquet boundaries are codimension one and grid sweeps must
# not flip verdicts on roundoff.
DEFAULT_TOL_MARGIN = 1e-6

# Monodromy determinant drift beyond this, relative to max(1, max|M_ij|^2),
# is a failed computation: det is a difference of products of entries, so
# its rounding error grows with their square.
_DET_QUALITY_TOL = 1e-6


class Verdict(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class HillProblem:
    """Hill equation data for modes (m, n) at load P along a mode-m orbit."""

    m: int
    n: int
    P: float
    orbit: DuffingOrbit
    coeff_period: float

    @property
    def linear_term(self) -> float:
        return float(self.n**2) * (float(self.n**2) - self.P)

    @property
    def coupling(self) -> float:
        return float(self.m**2 * self.n**2)

    def coefficient(self, theta_sq: float) -> float:
        return self.linear_term + self.coupling * theta_sq

    @property
    def coeff_min(self) -> float:
        """Analytic minimum of a(t), from the orbit's theta^2 range."""
        return self.coefficient(self.orbit.sq_min)

    @property
    def coeff_max(self) -> float:
        """Analytic maximum of a(t)."""
        return self.coefficient(self.orbit.sq_hi)


def build_hill(m: int, n: int, P: float, E: float) -> HillProblem:
    """Hill problem for the mode pair (m, n) at energy E of mode m.

    E must be admissible for mode m; the exact well bottom yields the
    constant-coefficient problem around the constant solution, with the
    limiting period as coefficient period.
    """
    if m == n:
        raise DomainError("perturbation mode must differ from the orbit mode")
    require_positive_int("m", m)
    require_positive_int("n", n)
    params = ModeParams(k=m, P=P)
    if classify_energy(params, E) is EnergyRegime.BOTTOM_OF_WELL:
        orbit = constant_orbit(params)
    else:
        orbit = orbit_from_energy(params, E)
    return HillProblem(m=m, n=n, P=P, orbit=orbit,
                       coeff_period=orbit.coefficient_period)


@dataclass(frozen=True)
class MonodromyResult:
    """Monodromy matrix of the Hill equation over one coefficient period.

    multipliers are the two Floquet multipliers, the roots of
    lambda^2 - trace lambda + det; their product is det, which equals 1 up
    to integration error.  coefficient_integrals holds (int_0^T a,
    int_0^T (a^+)^2) from the same integration when the matrix comes from
    monodromy, and None when a bare matrix was classified.
    """

    matrix: np.ndarray
    det: float
    trace: float
    multipliers: tuple[complex, complex]
    verdict: Verdict
    coefficient_integrals: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        return {
            "matrix": [[self.matrix[0, 0], self.matrix[0, 1]],
                       [self.matrix[1, 0], self.matrix[1, 1]]],
            "det": self.det,
            "trace": self.trace,
            "multipliers": [[z.real, z.imag] for z in self.multipliers],
            "verdict": self.verdict.value,
        }


def require_tol_margin(tol_margin: float) -> None:
    """Raise DomainError unless 0 <= tol_margin < 2: outside that range the
    marginal band is undefined or lets the Stable and Unstable bands meet."""
    if not 0.0 <= tol_margin < 2.0:
        raise DomainError(
            f"tol_margin must satisfy 0 <= tol_margin < 2, got {tol_margin!r}"
        )


def classify_matrix(matrix: np.ndarray, tol_margin: float = DEFAULT_TOL_MARGIN) -> MonodromyResult:
    """Verdict and multipliers of a 2x2 unit-determinant map.

    |trace| < 2 - tol_margin: Stable; |trace| > 2 + tol_margin: Unstable;
    the band in between (including |trace| = 2 exactly) is Marginal.
    Raises DomainError unless 0 <= tol_margin < 2, and
    NumericalQualityError when |det - 1| exceeds the quality tolerance
    scaled by max(1, max|M_ij|^2).
    """
    require_tol_margin(tol_margin)
    matrix = np.asarray(matrix, dtype=float)
    det = float(matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0])
    trace = float(matrix[0, 0] + matrix[1, 1])
    scale = max(1.0, float(np.max(np.abs(matrix))) ** 2)
    if abs(det - 1.0) > _DET_QUALITY_TOL * scale:
        raise NumericalQualityError(
            f"monodromy determinant drifted to {det}; result not trustworthy"
        )
    disc = trace * trace - 4.0 * det
    if disc >= 0.0:
        r = math.sqrt(disc)
        multipliers = ((trace + r) / 2.0 + 0.0j, (trace - r) / 2.0 + 0.0j)
    else:
        r = cmath.sqrt(complex(disc))
        multipliers = ((trace + r) / 2.0, (trace - r) / 2.0)
    if abs(trace) < 2.0 - tol_margin:
        verdict = Verdict.STABLE
    elif abs(trace) > 2.0 + tol_margin:
        verdict = Verdict.UNSTABLE
    else:
        verdict = Verdict.MARGINAL
    return MonodromyResult(matrix=matrix, det=det, trace=trace,
                           multipliers=multipliers, verdict=verdict)


def _coupled_rhs(problem: HillProblem) -> Callable[[float, np.ndarray], np.ndarray]:
    # One pass integrates the orbit, both fundamental Hill solutions and the
    # two coefficient quadratures of the Li-Zhang criterion:
    # y = (theta, theta', xi1, xi1', xi2, xi2', int a, int (a^+)^2).
    # Driving the Hill columns with the integrated orbit keeps coefficient
    # and solutions in phase to the integrator tolerance.
    rhs = duffing_rhs(problem.orbit.params)
    linear = problem.linear_term
    coupling = problem.coupling

    def coupled(t: float, y: np.ndarray) -> np.ndarray:
        d_theta = rhs(t, y[:2])
        a = linear + coupling * y[0] * y[0]
        return np.array([d_theta[0], d_theta[1], y[3], -a * y[2], y[5], -a * y[4],
                         a, max(a, 0.0) ** 2])

    return coupled


def monodromy(
    problem: HillProblem,
    config: IntegratorConfig = IntegratorConfig(),
    tol_margin: float = DEFAULT_TOL_MARGIN,
) -> MonodromyResult:
    """Monodromy matrix over one coefficient period of the Hill problem,
    with the coefficient integrals of the same pass attached."""
    theta0, dtheta0 = problem.orbit.initial_state
    y0 = np.array([theta0, dtheta0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    run = integrate(_coupled_rhs(problem), y0, (0.0, problem.coeff_period), config)
    yT = run.final_state
    matrix = np.array([[yT[2], yT[4]], [yT[3], yT[5]]])
    result = classify_matrix(matrix, tol_margin)
    return replace(result, coefficient_integrals=(float(yT[6]), float(yT[7])))


@dataclass(frozen=True)
class ZhukovskiiResult:
    """Sandwich test: a(t) >= 0 and [a_min, a_max] inside one Floquet gap.

    Applies when some integer ell satisfies
    ell^2 pi^2 / T^2 <= a(t) <= (ell+1)^2 pi^2 / T^2 for all t,
    with T the coefficient period; then the equation is stable.
    """

    applies: bool
    ell: int | None = None


@dataclass(frozen=True)
class LiZhangResult:
    """Mean-square test: positive mean and small positive part.

    Applies when int_0^T a > 0 and T^3 int_0^T (a^+)^2 < (64/3) sigma^4,
    with T the coefficient period; then the equation is stable.  lhs and
    rhs report the two sides of the strict inequality.
    """

    applies: bool
    lhs: float
    rhs: float


@dataclass(frozen=True)
class NegativeCoefficientResult:
    """a(t) <= 0 throughout forces instability of a nontrivial coefficient."""

    applies: bool


@dataclass(frozen=True)
class CriterionReport:
    zhukovskii: ZhukovskiiResult
    li_zhang: LiZhangResult
    negative_coefficient: NegativeCoefficientResult

    def to_dict(self) -> dict:
        return {
            "zhukovskii": {"applies": self.zhukovskii.applies,
                           "ell": self.zhukovskii.ell},
            "li_zhang": {"applies": self.li_zhang.applies,
                         "lhs": self.li_zhang.lhs, "rhs": self.li_zhang.rhs},
            "negative_coefficient": {"applies": self.negative_coefficient.applies},
        }


def zhukovskii_criterion(problem: HillProblem) -> ZhukovskiiResult:
    """Stability when [a_min, a_max] fits between consecutive squared
    half-harmonics of the coefficient period."""
    a_min = problem.coeff_min
    a_max = problem.coeff_max
    if a_min < 0.0:
        return ZhukovskiiResult(applies=False)
    T = problem.coeff_period
    base = (math.pi / T) ** 2
    ell = int(math.floor(math.sqrt(a_min / base)))
    if a_max <= (ell + 1) ** 2 * base:
        return ZhukovskiiResult(applies=True, ell=ell)
    return ZhukovskiiResult(applies=False)


def li_zhang_criterion(problem: HillProblem, result: MonodromyResult) -> LiZhangResult:
    """Stability from a positive coefficient mean and a small mean square,
    read off the coefficient integrals of the problem's monodromy pass."""
    if result.coefficient_integrals is None:
        raise DomainError("the monodromy result carries no coefficient integrals")
    mean, square = result.coefficient_integrals
    lhs = problem.coeff_period**3 * square
    rhs_bound = (64.0 / 3.0) * sigma_constant() ** 4
    return LiZhangResult(applies=mean > 0.0 and lhs < rhs_bound,
                         lhs=lhs, rhs=rhs_bound)


def negative_coefficient_criterion(problem: HillProblem) -> NegativeCoefficientResult:
    """Instability when the coefficient never becomes positive.

    Equivalent to the amplitude bound max theta^2 <= (P - n^2) / m^2; for a
    well orbit of mode m this happens up to the threshold energy
    E1 = (P - n^2)(2 m^2 - n^2 - P) / 4.
    """
    return NegativeCoefficientResult(applies=problem.coeff_max <= 0.0)


@dataclass(frozen=True)
class StabilityReport:
    verdict: Verdict
    criteria: CriterionReport
    monodromy: MonodromyResult

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "criteria": self.criteria.to_dict(),
            "monodromy": self.monodromy.to_dict(),
        }


def criteria_report(problem: HillProblem, result: MonodromyResult) -> CriterionReport:
    return CriterionReport(
        zhukovskii=zhukovskii_criterion(problem),
        li_zhang=li_zhang_criterion(problem, result),
        negative_coefficient=negative_coefficient_criterion(problem),
    )


def classify_stability(
    m: int,
    n: int,
    P: float,
    E: float,
    config: IntegratorConfig = IntegratorConfig(),
    tol_margin: float = DEFAULT_TOL_MARGIN,
) -> StabilityReport:
    """Full stability classification of the (m, n) pair at energy E.

    One integration gives the monodromy verdict and the coefficient
    integrals that the analytic criteria read; the two are cross-checked:
    a stability criterion that applies alongside an Unstable monodromy
    verdict (or the instability criterion alongside Stable) raises
    ConsistencyError.  Marginal monodromy agrees with either side.
    """
    problem = build_hill(m, n, P, E)
    result = monodromy(problem, config, tol_margin)
    criteria = criteria_report(problem, result)
    stable_claim = criteria.zhukovskii.applies or criteria.li_zhang.applies
    unstable_claim = criteria.negative_coefficient.applies
    if stable_claim and result.verdict is Verdict.UNSTABLE:
        raise ConsistencyError(
            f"stability criterion applies but monodromy is unstable "
            f"(m={m}, n={n}, P={P}, E={E}, trace={result.trace})"
        )
    if unstable_claim and result.verdict is Verdict.STABLE:
        raise ConsistencyError(
            f"instability criterion applies but monodromy is stable "
            f"(m={m}, n={n}, P={P}, E={E}, trace={result.trace})"
        )
    return StabilityReport(verdict=result.verdict, criteria=criteria,
                           monodromy=result)
