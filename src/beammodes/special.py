"""Complete elliptic integral K, Jacobi elliptic functions, and constants.

Everything downstream (mode periods, large-energy laws, the all-energy
stability bound) reduces to K and to the quartic-well quarter-period
constant sigma = K(1/sqrt(2))/sqrt(2) ~ 1.311; the mode orbits themselves
are Jacobi functions on the same arithmetic-geometric mean.
"""

import math

import numpy as np

from .errors import DomainError

# AGM converges quadratically; this stops after ~5 iterations in double
# precision and leaves K accurate to ~1e-15 relative.
_AGM_REL_TOL = 1e-15


def elliptic_k_from_complement(kp: float) -> float:
    """K(sqrt(1 - kp^2)) = pi / (2 agm(1, kp)), for 0 < kp <= 1.

    Taking the complementary modulus kp directly keeps every digit when
    the modulus is close to 1, where forming 1 - x^2 would cancel.
    """
    if not 0.0 < kp <= 1.0:
        raise DomainError(
            f"elliptic_k_from_complement requires 0 < kp <= 1, got {kp!r}"
        )
    a, b = 1.0, kp
    while abs(a - b) > _AGM_REL_TOL * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _landen_ladder(kp: float, caller: str) -> tuple[list, float]:
    """The descending Landen moduli [(k_0, kp_0), ..., (k_N, kp_N)] of 0 < kp <= 1
    from the AGM on (1, kp), and its mean a_N: u at k_0 is u a_N at k_N <= 1e-9."""
    if not 0.0 < kp <= 1.0:
        raise DomainError(f"{caller} requires 0 < kp <= 1, got {kp!r}")
    a, b, k = 1.0, kp, math.sqrt((1.0 - kp) * (1.0 + kp))
    moduli = [(k, kp)]
    while k > 1e-9:  # below, sin and cos are sn and cn to within k^2 u / 4
        k = (a - b) / (a + b)
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        moduli.append((k, b / a))
    return moduli, a


def jacobi_sn_cn_dn(u, kp: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sn, cn, dn of u (scalar or array) at complementary modulus 0 < kp <= 1.

    The AGM on (1, kp) gives the descending Landen moduli; at the top, sn
    and cn are sin and cos of u agm(1, kp) (DLMF 22.20(ii)).  The way down
    (DLMF 22.7.1-3) multiplies positive factors, so cn keeps its relative
    digits near its zeros, and each level forms dn = sqrt(kp^2 + k^2 cn^2),
    which never cancels; kp keeps every digit as k -> 1 (Bulirsch 1965).
    """
    moduli, a = _landen_ladder(kp, "jacobi_sn_cn_dn")
    phi = np.asarray(u, dtype=float) * a
    sn, cn, dn, k_up = np.sin(phi), np.cos(phi), 1.0, 0.0
    for k, kp_j in reversed(moduli):
        den = 1.0 + k_up * sn * sn
        sn, cn = (1.0 + k_up) * sn / den, cn * dn / den
        dn, k_up = np.sqrt(kp_j * kp_j + k * k * cn * cn), k
    return sn, cn, dn


def elliptic_f(sin_phi, cos_phi, kp: float):
    """F(phi | sqrt(1 - kp^2)), 0 < kp <= 1, from sin phi and cos phi (scalars or
    arrays), phi in [0, pi/2]: the u with sn u = sin phi, cn u = cos phi.  The
    phase goes up jacobi_sn_cn_dn's ladder by its inverse step: with s = (1 + kp)
    / (1 + dn), sn -> s sn and cn -> cn sqrt(2 s / (dn + kp)), positive factors
    that keep cn's digits near the separatrix; F = atan2(sn, cn) / a_N at the top
    (DLMF 19.8, 22.20(ii))."""
    moduli, a = _landen_ladder(kp, "elliptic_f")
    sn, cn = sin_phi, cos_phi
    for k, kp_j in moduli[:-1]:
        dn = np.sqrt(kp_j * kp_j + k * k * cn * cn)
        scale = (1.0 + kp_j) / (1.0 + dn)
        sn, cn = scale * sn, cn * np.sqrt(2.0 * scale / (dn + kp_j))
    return np.arctan2(sn, cn) / a


def elliptic_k(x: float) -> float:
    """K(x) = int_0^1 dt / sqrt((1 - t^2)(1 - x^2 t^2)), for 0 <= x < 1."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"elliptic_k requires 0 <= x < 1, got {x!r}")
    return elliptic_k_from_complement(math.sqrt((1.0 - x) * (1.0 + x)))


def sigma_constant() -> float:
    """The quarter-period constant sigma = int_0^1 dtheta / sqrt(1 - theta^4).

    Equals K(1/sqrt(2)) / sqrt(2); the first-zero time of the reference
    cubic oscillator and every large-energy period law carry this factor.
    """
    return elliptic_k(1.0 / math.sqrt(2.0)) / math.sqrt(2.0)


def comparison_bounds(z: float, eps: float) -> tuple[float, float, float]:
    """Evaluate the comparison triple (f, g, h) at z with margin eps.

    f(z) = K(sqrt(z))^4 is the exact quantity controlled by the all-energy
    stability argument, g(z) = (pi/2 + (2 sqrt(2) sigma - pi) z)^4 is its
    chord upper bound, and h(z) is the criterion envelope

        h(z) = max( pi^4 / (16 eps^4 (eps^2 + 2 (1 - eps^2) z)^2),
                    4 sigma^4 / (eps^4 (4 (3 eps^4 - 4 eps^2 + 5/3) z^2
                                 - 4 (3 eps^4 - 2 eps^2 + 1/3) z + 3 eps^4)) ).

    The argument closes on (0, 1/2) exactly when f < h there; the chord
    bound g gives the easy sufficient route f < g < h when it holds.
    """
    if not 0.0 < z < 0.5:
        raise DomainError(f"comparison_bounds requires 0 < z < 1/2, got z={z!r}")
    if not 0.0 < eps < 1.0:
        raise DomainError(f"comparison_bounds requires 0 < eps < 1, got eps={eps!r}")
    sig = sigma_constant()
    f = elliptic_k(math.sqrt(z)) ** 4
    g = (0.5 * math.pi + (2.0 * math.sqrt(2.0) * sig - math.pi) * z) ** 4
    e2 = eps * eps
    e4 = e2 * e2
    h1 = math.pi**4 / (16.0 * e4 * (e2 + 2.0 * (1.0 - e2) * z) ** 2)
    den = (
        4.0 * (3.0 * e4 - 4.0 * e2 + 5.0 / 3.0) * z * z
        - 4.0 * (3.0 * e4 - 2.0 * e2 + 1.0 / 3.0) * z
        + 3.0 * e4
    )
    if den <= 0.0:
        raise DomainError(
            f"criterion envelope degenerates at z={z!r}, eps={eps!r}"
        )
    h2 = 4.0 * sig**4 / (e4 * den)
    return f, g, max(h1, h2)
