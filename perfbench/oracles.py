"""Reference computations the benchmark checks the program against.

Nothing here imports beammodes: periods come from mpmath's complete
elliptic integral at 40 digits, monodromy traces from scipy's LSODA
(odeint) at a tighter tolerance than the program's DOP853 and started from
the other turning point, large-energy verdicts from exact rational
membership of gamma = n^2/m^2 in the interval families I_U and I_S.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import odeint

DIGITS = 40

# Verdicts are compared only where the reference trace is this far from
# |trace| = 2; inside the band the reference itself cannot decide.
MARGINAL_BAND = 1e-4


def _period_mp(k: int, P: float, E: float) -> mpmath.mpf:
    with mpmath.workdps(DIGITS):
        k, P, E = mpmath.mpf(k), mpmath.mpf(P), mpmath.mpf(E)
        gap = P - k * k
        if E > 0:
            # T = 4 K(m) / (k X^(1/4)), X = 4E + gap^2, m = 1/2 + gap/(2 sqrt X)
            X = 4 * E + gap * gap
            m = mpmath.mpf(1) / 2 + gap / (2 * mpmath.sqrt(X))
            return 4 * mpmath.ellipk(m) / (k * mpmath.root(X, 4))
        if gap <= 0 or not -gap * gap / 4 < E < 0:
            raise ValueError(f"no periodic orbit at k={k}, P={P}, E={E}")
        # In-well orbit between the roots lo < hi of the turning quadratic
        # in theta^2: T = 2 sqrt 2 K(1 - lo/hi) / (k sqrt(P - k^2 + s)).
        s = mpmath.sqrt(gap * gap + 4 * E)
        return 2 * mpmath.sqrt(2) * mpmath.ellipk(1 - (gap - s) / (gap + s)) \
            / (k * mpmath.sqrt(gap + s))


def period(k: int, P: float, E: float) -> float:
    """Orbit period of mode k at load P and energy E, to 40 digits."""
    return float(_period_mp(k, P, E))


def sigma() -> float:
    """Quarter-period constant K(1/sqrt 2)/sqrt 2 of u'' + u^3 = 0."""
    with mpmath.workdps(DIGITS):
        return float(mpmath.ellipk(mpmath.mpf(1) / 2) / mpmath.sqrt(2))


def small_energy_period(k: int, P: float) -> float:
    """Limit of the period as E -> 0+ for k^2 > P: 2 pi / (k sqrt(k^2 - P))."""
    return 2.0 * math.pi / (k * math.sqrt(k * k - P))


def bottom_period(k: int, P: float) -> float:
    """Limit of the period at the well bottom for k^2 < P."""
    return math.pi * math.sqrt(2.0) / (k * math.sqrt(P - k * k))


def outer_amplitude(k: int, P: float, E: float) -> float:
    """Largest |theta| on the mode-k orbit at energy E."""
    with mpmath.workdps(DIGITS):
        k, P, E = mpmath.mpf(k), mpmath.mpf(P), mpmath.mpf(E)
        gap = P - k * k
        return float(mpmath.sqrt((gap + mpmath.sqrt(gap * gap + 4 * E)) / (k * k)))


def hill_trace(m: int, n: int, P: float, E: float) -> float:
    """Monodromy trace of xi'' + (n^2 (n^2 - P) + m^2 n^2 theta^2) xi = 0
    along the mode-m orbit at energy E, over one period of theta^2.

    The orbit starts at its outer turning point (the program starts well
    orbits at the inner one); a shift of the time origin conjugates the
    monodromy matrix and leaves the trace unchanged.
    """
    T = period(m, P, E)
    t_end = 0.5 * T if E > 0 else T          # theta^2 has half the period
    m2, n2 = float(m * m), float(n * n)
    stiffness = m2 * (m2 - P)
    linear = n2 * (n2 - P)
    coupling = m2 * n2

    def rhs(t, y):
        theta = y[0]
        a = linear + coupling * theta * theta
        return [y[1], -(stiffness + m2 * m2 * theta * theta) * theta,
                y[3], -a * y[2], y[5], -a * y[4]]

    y0 = [outer_amplitude(m, P, E), 0.0, 1.0, 0.0, 0.0, 1.0]
    yT = odeint(rhs, y0, [0.0, t_end], rtol=1e-12, atol=1e-14,
                mxstep=1_000_000, tfirst=True)[-1]
    return float(yT[2] + yT[5])


def verdict_of_trace(trace: float, band: float = MARGINAL_BAND) -> str:
    """'stable', 'unstable', or 'marginal' when |trace| is within band of 2."""
    if abs(trace) < 2.0 - band:
        return "stable"
    if abs(trace) > 2.0 + band:
        return "unstable"
    return "marginal"


def gamma_membership(gamma) -> str:
    """'I_U', 'I_S' or 'boundary' for gamma > 0, in exact rational arithmetic.

    I_S(j) = (j (2j+1), (j+1)(2j+1)) and I_U(j) = ((j+1)(2j+1), (j+1)(2j+3))
    tile (0, inf) with shared integer endpoints.  A float gamma is taken as
    the binary rational it stores.
    """
    g = Fraction(gamma)
    if g <= 0:
        raise ValueError("gamma must be positive")
    j = 0
    while g > (j + 1) * (2 * j + 3):
        j += 1
    if g in ((j + 1) * (2 * j + 1), (j + 1) * (2 * j + 3)):
        return "boundary"
    return "I_U" if g > (j + 1) * (2 * j + 1) else "I_S"


def large_energy_verdict(gamma) -> str:
    """Limit verdict as E -> infinity: unstable on I_U, stable on I_S."""
    membership = gamma_membership(gamma)
    if membership == "boundary":
        return "marginal"
    return "unstable" if membership == "I_U" else "stable"


def two_mode_energy(m: int, n: int, P: float, states: np.ndarray) -> np.ndarray:
    """Total energy of the two-mode system at each row (w, w', z, z')."""
    m2, n2 = float(m * m), float(n * n)
    w, wd, z, zd = states[:, 0], states[:, 1], states[:, 2], states[:, 3]
    return (0.5 * (wd * wd + zd * zd)
            + 0.5 * m2 * (m2 - P) * w * w + 0.5 * n2 * (n2 - P) * z * z
            + 0.25 * (m2 * w * w + n2 * z * z) ** 2)


def relative_drift(m: int, n: int, P: float, states: np.ndarray) -> float:
    """max |E(t) - E(0)| / |E(0)| along the recorded states."""
    energy = two_mode_energy(m, n, P, states)
    return float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
