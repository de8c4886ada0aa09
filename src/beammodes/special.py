"""Complete elliptic integral K, Jacobi elliptic functions, and constants.

Everything downstream (mode periods, large-energy laws, the all-energy
stability bound) reduces to K and to the quartic-well quarter-period
constant sigma = K(1/sqrt(2))/sqrt(2) ~ 1.311; the mode orbits themselves
are Jacobi functions on the same arithmetic-geometric mean.
"""

from __future__ import annotations

import math

from ._lazy import np
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


def landen_ladders(kp) -> tuple[np.ndarray, np.ndarray]:
    """The Landen ladders of jacobi_sn_cn_dn for kp, a scalar or one value per
    row, as the factors of each level j's step down: k_{j+1} (0 at the top),
    1 + k_{j+1}, k_j^2 and kp_j^2, shape (4, depth) + shape(kp); and the means
    a_N, shape(kp).  A shorter ladder is padded at the top with levels k = 0,
    kp = 1, through which the way down is exact (sn and cn pass unchanged and
    dn is 1), so each row's arithmetic is that of its own ladder."""
    kps = np.asarray(kp, dtype=float)
    ladders = [_landen_ladder(x, "jacobi_sn_cn_dn") for x in kps.ravel().tolist()]
    depth = max(len(moduli) for moduli, _ in ladders)
    levels = []
    for moduli, _ in ladders:
        moduli = moduli + [(0.0, 1.0)] * (depth - len(moduli))
        k_up = [k for k, _ in moduli[1:]] + [0.0]
        levels.append((k_up, [1.0 + k for k in k_up], [k * k for k, _ in moduli],
                       [kp_j * kp_j for _, kp_j in moduli]))
    return (np.array(levels).transpose(1, 2, 0).reshape((4, depth) + kps.shape),
            np.array([a for _, a in ladders]).reshape(kps.shape))


def jacobi_on_ladders(u, levels: np.ndarray, means: np.ndarray):
    """sn, cn, dn of u on the ladders that landen_ladders built: one ladder,
    or one for each row of u (the leading axes of u are those of kp).

    At the top, sn and cn are sin and cos of u a_N (DLMF 22.20(ii)).  The
    way down (DLMF 22.7.1-3) multiplies positive factors, so cn keeps its
    relative digits near its zeros, and each level forms
    dn = sqrt(kp^2 + k^2 cn^2), which never cancels; kp keeps every digit as
    k -> 1 (Bulirsch 1965).
    """
    u = np.asarray(u, dtype=float)
    if means.ndim:
        rows = means.shape + (1,) * (u.ndim - means.ndim)
        factors, means = levels.reshape(levels.shape[:2] + rows), means.reshape(rows)
    else:                                   # one ladder: its factors as floats
        factors = levels.tolist()
    phi = u * means
    sn, cn = np.sin(phi), np.cos(phi)
    del phi
    # in place where sn and cn are arrays, so that a batch holds fewer of
    # them at once; each step is the product or sum it stands for, operand
    # order aside, on which + and * round alike: den = 1 + k_up sn sn,
    # sn = grow sn / den, cn = cn dn / den, dn = sqrt(kp^2 + k^2 cn cn).
    # At the top k_up = 0, so den = 1 and sn and cn stay.
    for level, (k_up, grow, k_sq, kp_sq) in enumerate(reversed(list(zip(*factors)))):
        if level:
            den = k_up * sn
            den *= sn
            den += 1.0
            sn *= grow
            sn /= den
            cn *= dn
            cn /= den
        dn = k_sq * cn
        dn *= cn
        dn += kp_sq
        dn = np.sqrt(dn)
    return sn, cn, dn


def jacobi_sn_cn_dn(u, kp) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sn, cn, dn of u (scalar or array) at complementary modulus 0 < kp <= 1,
    or at one kp per row of u, on the descending Landen moduli of the AGM on
    (1, kp) (see landen_ladders and jacobi_on_ladders)."""
    return jacobi_on_ladders(u, *landen_ladders(kp))


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
