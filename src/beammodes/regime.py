"""Parameter-regime classification for a mode pair (m, n).

Three ingredients:

* the squared frequency ratio gamma = n^2 / m^2 against the interval
  families

      I_U = union_k ((k+1)(2k+1), (k+1)(2k+3))   (unstable at large energy)
      I_S = union_k ( k(2k+1),    (k+1)(2k+1))   (stable at large energy)

  which partition (0, infinity) up to the shared endpoints; membership for
  integer pairs is decided in exact integer arithmetic;

* resonance diagnostics: the linear-frequency ratio integer ell with
  n sqrt(n^2 - P) = ell m sqrt(m^2 - P), the largest integer mu strictly
  below that ratio, and for wells the bottom-of-well frequency ratio
  L = (n/m) sqrt(2 (n^2 - m^2) / (P - m^2)) together with the quartic

      3 m^4 L^4 - (3 m^4 + 4 n^2 m^2) L^2 + 4 n^2 m^2 - 4 n^4,

  whose non-vanishing at integer L restores stability near the bottom;

* the seven-row prediction table over the orderings of P, m^2, n^2, and
  the large-energy limit classifier: the monodromy of the normalized
  cubic oscillator's first arch, integrated up to the arch's peak and
  unfolded by time reversal, whose verdict decides the gamma-dependent
  rows; a batch of gammas shares one search for that peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from typing import Sequence

from . import hill
from .duffing import ModeParams, duffing_rhs
from .errors import (BeamModesError, DomainError, Serializable, attempt, require_count,
                     require_mode_pair, require_positive_finite, require_positive_int)
from .hill import MonodromyResult, classify_matrix, DEFAULT_TOL_MARGIN
from .integrate import IntegratorConfig, find_zero_crossing

# Relative tolerance for recognizing an exactly-integer frequency ratio
# from floating-point data.
_RATIO_TOL = 1e-12

# Largest n_max of the quartic scan, which tests n^2 / 2 pairs: 0.27 s at
# n_max = 500 and 32 s at 5,000 on 2 vCPUs.  Larger ones fail fast.
MAX_QUARTIC_N = 5_000


class GammaMembership(Enum):
    UNSTABLE_INTERVAL = "I_U"
    STABLE_INTERVAL = "I_S"
    BOUNDARY_LOWER = "boundary-lower"   # gamma = (k+1)(2k+1)
    BOUNDARY_UPPER = "boundary-upper"   # gamma = (k+1)(2k+3)


@dataclass(frozen=True)
class FrequencyRatioClass(Serializable):
    gamma: float
    membership: GammaMembership
    k_index: int


def _classify_ratio(num: int, den: int) -> tuple[GammaMembership, int]:
    # gamma = num/den > 0 against the interval endpoints, exactly:
    # I_S(k) = (k(2k+1), (k+1)(2k+1)), I_U(k) = ((k+1)(2k+1), (k+1)(2k+3)).
    if num <= 0 or den <= 0:
        raise DomainError("ratio must be positive")
    # Largest k >= -1 with (k+1)(2k+3) <= gamma, i.e. 4k + 5 <= s with
    # s = sqrt(8 gamma + 1) = sqrt(den (den + 8 num)) / den.  Flooring the
    # square root first changes nothing: floor((floor(y) - c) / d) equals
    # floor((y - c) / d) for integers c and d > 0, so k is exact.
    k = (isqrt(den * (den + 8 * num)) - 5 * den) // (4 * den)
    if k >= 0 and num == den * (k + 1) * (2 * k + 3):
        return GammaMembership.BOUNDARY_UPPER, k
    k += 1
    lower_u = den * (k + 1) * (2 * k + 1)
    if num == lower_u:
        return GammaMembership.BOUNDARY_LOWER, k
    if num > lower_u:
        return GammaMembership.UNSTABLE_INTERVAL, k
    return GammaMembership.STABLE_INTERVAL, k


def classify_gamma(m: int, n: int) -> FrequencyRatioClass:
    """Exact interval membership of gamma = n^2 / m^2 for integer m, n >= 1;
    DomainError when the float gamma overflows or underflows to 0."""
    require_positive_int("m", m)
    require_positive_int("n", n)
    try:
        gamma = (n * n) / (m * m)
    except OverflowError:
        gamma = math.inf
    if not 0.0 < gamma < math.inf:
        raise DomainError(f"gamma = n^2 / m^2 must be a positive finite float, "
                          f"got m = {m!r}, n = {n!r}")
    membership, k = _classify_ratio(int(n) * int(n), int(m) * int(m))
    return FrequencyRatioClass(gamma=gamma, membership=membership, k_index=k)


def classify_gamma_value(gamma: float) -> FrequencyRatioClass:
    """Interval membership of an arbitrary positive gamma.

    A float is an exact binary rational, and it is compared exactly
    against the integer endpoints; only exact float equality is reported
    as a boundary, so values within roundoff of an endpoint land in a
    neighbouring interval.  Use classify_gamma for exact rational input.
    """
    require_positive_finite("gamma", gamma)
    membership, k = _classify_ratio(*float(gamma).as_integer_ratio())
    return FrequencyRatioClass(gamma, membership, k)


@dataclass(frozen=True)
class ResonanceDiagnostics(Serializable):
    """Resonance indicators for the pair (m, n) at load P.

    Fields are None when outside their domain: ell and mu need both linear
    frequencies real (m^2 > P and n^2 > P), L and the quartic need a well
    under mode m (m^2 < P) and n > m.
    """

    m: int
    n: int
    P: float
    ell: int | None
    mu: int | None
    L: float | None
    L_is_integer: bool | None
    quartic_value: float | None


def bottom_frequency_ratio(m: int, n: int, P: float) -> float:
    """L = (n/m) sqrt(2 (n^2 - m^2) / (P - m^2)); needs m^2 < P and n > m."""
    if not m * m < P:
        raise DomainError("bottom frequency ratio needs m^2 < P")
    if not n > m:
        raise DomainError("bottom frequency ratio needs n > m")
    return (n / m) * math.sqrt(2.0 * (n * n - m * m) / (P - m * m))


def resonance_quartic(m: int, n: int, L: float) -> float:
    """3 m^4 L^4 - (3 m^4 + 4 n^2 m^2) L^2 + 4 n^2 m^2 - 4 n^4."""
    m2, n2 = float(m * m), float(n * n)
    m4 = m2 * m2
    L2 = L * L
    return 3.0 * m4 * L2 * L2 - (3.0 * m4 + 4.0 * n2 * m2) * L2 \
        + 4.0 * n2 * m2 - 4.0 * n2 * n2


def resonance_diagnostics(m: int, n: int, P: float) -> ResonanceDiagnostics:
    """All resonance indicators that are defined at (m, n, P)."""
    require_mode_pair(m, n, P)
    ell = mu = None
    if m * m > P and n * n > P:
        ratio = (n * math.sqrt(n * n - P)) / (m * math.sqrt(m * m - P))
        nearest = round(ratio)
        exact = nearest >= 1 and abs(ratio - nearest) <= _RATIO_TOL * ratio
        if exact and nearest >= 2:
            ell = int(nearest)
        # largest integer strictly below the ratio
        mu = int(nearest) - 1 if exact else int(math.floor(ratio))
        mu = max(mu, 0)
    L = L_int = quartic = None
    if m * m < P and n > m:
        L = bottom_frequency_ratio(m, n, P)
        nearest = round(L)
        L_int = nearest >= 1 and abs(L - nearest) <= _RATIO_TOL * (1.0 + L)
        quartic = resonance_quartic(m, n, L)
    return ResonanceDiagnostics(m=m, n=n, P=P, ell=ell, mu=mu, L=L,
                                L_is_integer=L_int, quartic_value=quartic)


def resonance_quartic_scan(n_max: int) -> list[tuple[int, int, int]]:
    """All (m, n, L) with 1 <= m < n <= n_max and integer L >= 1 making the
    resonance quartic vanish exactly.

    Evaluated purely in integer arithmetic.  The quartic in L has exactly
    one positive root for m < n, so only the integers adjacent to that
    root need testing.  An empty result means the quartic obstruction
    never degenerates in the scanned range.
    """
    require_count("n_max", n_max, 2, MAX_QUARTIC_N)
    hits: list[tuple[int, int, int]] = []
    for n in range(2, n_max + 1):
        n2 = n * n
        for m in range(1, n):
            m2 = m * m
            m4 = m2 * m2
            a = 3 * m4
            b = 3 * m4 + 4 * n2 * m2
            c = 4 * n2 * m2 - 4 * n2 * n2        # negative since m < n
            disc = b * b - 4 * a * c             # > 0: one positive root in L^2
            s = isqrt(disc)
            root_floor = (b + s) // (2 * a)      # floor of the positive L^2 root
            base = isqrt(root_floor)
            for L in (base - 1, base, base + 1, base + 2):
                if L >= 1 and a * L**4 - b * L * L + c == 0:
                    hits.append((m, n, L))
    return hits


class Ordering(Enum):
    """The seven orderings of P against the two squared mode numbers
    (first mode m carries the orbit, second mode n the perturbation)."""

    P_LE_N2_LT_M2 = "P <= n^2 < m^2"
    N2_LT_P_LE_M2 = "n^2 < P <= m^2"
    N2_LT_M2_LT_P = "n^2 < m^2 < P"
    P_LT_M2_LT_N2 = "P < m^2 < n^2"
    P_EQ_M2_LT_N2 = "P = m^2 < n^2"
    M2_LT_P_LE_N2 = "m^2 < P <= n^2"
    M2_LT_N2_LT_P = "m^2 < n^2 < P"


class Prediction(Enum):
    STABLE = "S"
    UNSTABLE = "I"
    UNKNOWN = "?"
    DEPENDS_ON_GAMMA = "I/S"


# Predicted verdicts (low energy, high energy) per ordering, and the
# mechanisms backing each prediction.
_TABLE: dict[Ordering, tuple[Prediction, Prediction, tuple[str, ...]]] = {
    Ordering.P_LE_N2_LT_M2: (Prediction.STABLE, Prediction.STABLE,
                             ("small-energy-sandwich", "large-energy-mean-square",
                              "all-energy-elliptic-bound")),
    Ordering.N2_LT_P_LE_M2: (Prediction.UNSTABLE, Prediction.STABLE,
                             ("negative-coefficient", "large-energy-mean-square")),
    Ordering.N2_LT_M2_LT_P: (Prediction.UNSTABLE, Prediction.STABLE,
                             ("negative-coefficient", "large-energy-mean-square")),
    Ordering.P_LT_M2_LT_N2: (Prediction.STABLE, Prediction.DEPENDS_ON_GAMMA,
                             ("small-energy-sandwich", "frequency-ratio-limit")),
    Ordering.P_EQ_M2_LT_N2: (Prediction.UNKNOWN, Prediction.DEPENDS_ON_GAMMA,
                             ("frequency-ratio-limit",)),
    Ordering.M2_LT_P_LE_N2: (Prediction.STABLE, Prediction.DEPENDS_ON_GAMMA,
                             ("bottom-of-well-expansion", "frequency-ratio-limit")),
    Ordering.M2_LT_N2_LT_P: (Prediction.STABLE, Prediction.DEPENDS_ON_GAMMA,
                             ("bottom-of-well-expansion", "frequency-ratio-limit")),
}


@dataclass(frozen=True)
class RegimeReport(Serializable):
    """Low- and high-energy stability predictions for the pair (m, n).

    high_energy_resolved replaces a gamma-dependent entry by the interval
    verdict of gamma = n^2/m^2; at an interval endpoint the resolution is
    conjectural and flagged as such.
    """

    m: int
    n: int
    P: float
    ordering: Ordering
    low_energy: Prediction
    high_energy: Prediction
    high_energy_resolved: str
    gamma_class: FrequencyRatioClass
    mechanisms: tuple[str, ...]


def _ordering_of(m: int, n: int, P: float) -> Ordering:
    m2, n2 = m * m, n * n
    if n < m:
        if P <= n2:
            return Ordering.P_LE_N2_LT_M2
        if P <= m2:
            return Ordering.N2_LT_P_LE_M2
        return Ordering.N2_LT_M2_LT_P
    if P < m2:
        return Ordering.P_LT_M2_LT_N2
    if P == m2:
        return Ordering.P_EQ_M2_LT_N2
    if P <= n2:
        return Ordering.M2_LT_P_LE_N2
    return Ordering.M2_LT_N2_LT_P


def table_regime(m: int, n: int, P: float) -> RegimeReport:
    """Prediction-table row for (m, n, P), with gamma-dependent entries
    resolved through the exact interval classification."""
    require_mode_pair(m, n, P)
    ordering = _ordering_of(m, n, P)
    low, high, mechanisms = _TABLE[ordering]
    gamma_class = classify_gamma(m, n)
    if high is Prediction.DEPENDS_ON_GAMMA:
        if gamma_class.membership is GammaMembership.UNSTABLE_INTERVAL:
            resolved = "I"
        elif gamma_class.membership is GammaMembership.STABLE_INTERVAL:
            resolved = "S"
        elif gamma_class.membership is GammaMembership.BOUNDARY_LOWER:
            resolved = "conjecture:I"
        else:
            resolved = "conjecture:S"
    else:
        resolved = high.value
    return RegimeReport(m=m, n=n, P=P, ordering=ordering, low_energy=low,
                        high_energy=high, high_energy_resolved=resolved,
                        gamma_class=gamma_class, mechanisms=mechanisms)


# The large-energy limit classifier follows u'' + u^3 = 0 (mode k = 1 at
# load P = 1), u(0) = 0, u'(0) = 1, over its first arch (0, theta), theta =
# 2^(5/4) sigma, with eta'' + gamma u^2 eta = 0 (linear term 0, coupling
# gamma); the limit monodromy is minus the fundamental matrix at theta.
# The arch is symmetric about its peak theta/2, where u' falls through zero,
# so one search per batch stops there; hill's half-period pass unfolds from it.
_LIMIT_MODE = ModeParams(k=1, P=1.0)
_LIMIT_CONFIG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
# Largest gamma of the limit classifier: a pass costs like sqrt(gamma),
# about 0.5 s at 1e6 and 29 s at 1e10, and overflows from about 1e150.
MAX_LIMIT_GAMMA = 1e6


def cazenave_limit_classify(gammas: Sequence[float], tol_margin: float = DEFAULT_TOL_MARGIN
                            ) -> list[MonodromyResult | BeamModesError]:
    """Large-energy stability of the perturbation with frequency-ratio
    square gamma, for each gamma in order, after one peak search: the
    verdict of the limit matrix described above, or the BeamModesError
    raised in its place (DomainError past MAX_LIMIT_GAMMA).  Stable verdicts
    correspond to gamma interior to I_S, unstable ones to gamma interior to I_U.
    """
    peak = None                     # searched for at the first valid gamma

    def limit(gamma):
        nonlocal peak
        require_positive_finite("gamma", gamma)
        if gamma > MAX_LIMIT_GAMMA:
            raise DomainError(f"gamma must be at most {MAX_LIMIT_GAMMA:g}, got {gamma!r}")
        if peak is None:
            peak = find_zero_crossing(duffing_rhs(_LIMIT_MODE), (0.0, 1.0), component=1,
                                      direction="falling", t_max=10.0, config=_LIMIT_CONFIG)
        matrix, _ = hill._half_period_pass(_LIMIT_MODE, (0.0, 1.0), 0.0, gamma,
                                           peak, _LIMIT_CONFIG)
        return classify_matrix(-matrix, tol_margin)

    return [attempt(limit, gamma) for gamma in gammas]
