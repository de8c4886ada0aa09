"""Elliptic integral, sigma constant, and the fourth-power comparison bounds."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from numpy.testing import assert_allclose

from beammodes.errors import DomainError
from beammodes.special import (comparison_bounds, elliptic_f, elliptic_k,
                               elliptic_k_from_complement, jacobi_sn_cn_dn, sigma_constant)


def test_elliptic_k_zero_modulus():
    assert elliptic_k(0.0) == pytest.approx(math.pi / 2, abs=1e-15)


@pytest.mark.parametrize("x", [0.1, 0.3, 1 / math.sqrt(2), 0.9, 0.99, 0.9999])
def test_elliptic_k_against_scipy(x):
    # scipy's ellipk takes the parameter m = x^2, not the modulus
    assert elliptic_k(x) == pytest.approx(scipy.special.ellipk(x * x), rel=1e-14)


def test_elliptic_k_against_quadrature():
    for x in (0.2, 0.5, 0.8):
        oracle, err = scipy.integrate.quad(
            lambda t: 1.0 / math.sqrt((1 - t * t) * (1 - x * x * t * t)), 0.0, 1.0
        )
        # the error estimate is conservative at the singular endpoint
        assert err < 1e-8
        assert elliptic_k(x) == pytest.approx(oracle, rel=1e-10)


def test_elliptic_k_monotone_and_divergent():
    xs = np.linspace(0.0, 0.999999, 200)
    ks = [elliptic_k(float(x)) for x in xs]
    assert all(b > a for a, b in zip(ks, ks[1:]))
    assert ks[-1] > 7.0  # logarithmic blowup toward x = 1


@pytest.mark.parametrize("x", [-0.1, 1.0, 1.5, math.inf])
def test_elliptic_k_domain(x):
    with pytest.raises(DomainError):
        elliptic_k(x)


@pytest.mark.parametrize("kp", [1e-150, 1e-12, 1e-6, 0.01, 0.5, 0.9, 1.0])
def test_elliptic_k_from_complement_against_scipy(kp):
    # ellipkm1(p) = K(1 - p) keeps its digits for p -> 0
    assert elliptic_k_from_complement(kp) == pytest.approx(
        scipy.special.ellipkm1(kp * kp), rel=1e-14)


@pytest.mark.parametrize("kp", [0.0, -0.1, 1.5, math.inf, math.nan])
def test_elliptic_k_from_complement_domain(kp):
    with pytest.raises(DomainError):
        elliptic_k_from_complement(kp)


@pytest.mark.parametrize("kp", [1e-8, 1e-6, 1e-4, 1e-2, 0.3, 0.7, 0.99, 1.0])
def test_jacobi_against_mpmath(kp):
    """40-digit sn, cn, dn over four quarter periods, on a grid that also
    holds every multiple of K/8 (the turning points and zeros among them)."""
    mpmath = pytest.importorskip("mpmath")
    K = elliptic_k_from_complement(kp)
    us = np.concatenate([np.linspace(0.0, 4.0 * K, 201), K * np.arange(33) / 8.0])
    sn, cn, dn = jacobi_sn_cn_dn(us, kp)
    with mpmath.workdps(40):
        m = 1 - mpmath.mpf(kp) ** 2
        want = np.array([[float(mpmath.ellipfun(f, mpmath.mpf(u), m=m))
                          for f in ("sn", "cn", "dn")] for u in us])
    assert np.max(np.abs(sn - want[:, 0])) < 2e-14
    assert np.max(np.abs(cn - want[:, 1])) < 1e-14
    assert np.max(np.abs(dn / want[:, 2] - 1.0)) < 1e-13


def test_jacobi_limits_and_shapes():
    u = np.linspace(-3.0, 3.0, 7)
    sn, cn, dn = jacobi_sn_cn_dn(u, 1.0)        # k = 0: sin, cos, 1
    assert_allclose(sn, np.sin(u), rtol=0, atol=1e-16)
    assert_allclose(cn, np.cos(u), rtol=0, atol=1e-16)
    assert np.all(dn == 1.0)
    sn, cn, dn = jacobi_sn_cn_dn(0.0, 1e-3)
    assert sn.shape == cn.shape == dn.shape == () and float(sn) == 0.0
    assert float(cn) == pytest.approx(1.0, abs=1e-15)
    assert float(dn) == pytest.approx(1.0, abs=1e-15)
    # cn(K) = 0 and dn(K) = kp, the latter to its relative digits
    kp = 1e-7
    sn, cn, dn = jacobi_sn_cn_dn(elliptic_k_from_complement(kp), kp)
    assert abs(float(cn)) < 1e-15 and float(dn) == pytest.approx(kp, rel=1e-13)


def test_jacobi_kp_per_row_matches_scalar_calls():
    """One call with a kp per row of u, whose ladders differ in depth, gives
    each row's scalar call bit for bit, and 40-digit sn, cn, dn."""
    mpmath = pytest.importorskip("mpmath")
    kps = np.array([1e-8, 1e-3, 0.5, 1.0])
    us = np.array([elliptic_k_from_complement(kp) * np.linspace(-1.0, 3.0, 41)
                   for kp in kps])
    rows = jacobi_sn_cn_dn(us, kps)
    for row, (u, kp) in enumerate(zip(us, kps)):
        for got, want in zip(rows, jacobi_sn_cn_dn(u, kp)):
            assert got[row].tobytes() == want.tobytes(), kp
        with mpmath.workdps(40):
            m = 1 - mpmath.mpf(kp) ** 2
            ref = np.array([[float(mpmath.ellipfun(f, mpmath.mpf(x), m=m))
                             for f in ("sn", "cn", "dn")] for x in u])
        assert np.max(np.abs(rows[0][row] - ref[:, 0])) < 2e-14
        assert np.max(np.abs(rows[1][row] - ref[:, 1])) < 1e-14
        assert np.max(np.abs(rows[2][row] / ref[:, 2] - 1.0)) < 1e-13


@pytest.mark.parametrize("kp", [0.0, -0.1, 1.5, math.inf, math.nan])
def test_jacobi_domain(kp):
    with pytest.raises(DomainError):
        jacobi_sn_cn_dn(1.0, kp)


@pytest.mark.parametrize("kp", [1.0, 0.5, 1e-3, 1e-9, 1e-12])
def test_elliptic_f_against_mpmath(kp):
    # phi from 0 to the quarter period, its sine and cosine rounded from the
    # same float phi that mpmath takes; next to pi/2 at kp = 1e-12, F is
    # within a few units of K ~ 29
    mpmath = pytest.importorskip("mpmath")
    for phi in (0.0, 1e-8, 0.3, 1.0, 1.5, math.pi / 2 - 1e-9, math.pi / 2):
        got = float(elliptic_f(math.sin(phi), math.cos(phi), kp))
        with mpmath.workdps(40):
            want = float(mpmath.ellipf(mpmath.mpf(phi), 1 - mpmath.mpf(kp) ** 2))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0), phi


@pytest.mark.parametrize("kp", [1e-12, 1e-7, 1e-3, 0.5, 1.0])
def test_elliptic_f_inverts_sn_and_cn(kp):
    K = elliptic_k_from_complement(kp)
    assert float(elliptic_f(1.0, 0.0, kp)) == pytest.approx(K, rel=1e-15)
    us = K * np.linspace(0.0, 1.0, 17)
    sn, cn, _ = jacobi_sn_cn_dn(us, kp)
    # sn and cn carry a few units of rounding each
    assert_allclose(elliptic_f(sn, cn, kp), us, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kp", [0.0, -0.1, 1.5, math.inf, math.nan])
def test_elliptic_f_domain(kp):
    with pytest.raises(DomainError, match="elliptic_f requires 0 < kp <= 1"):
        elliptic_f(0.5, math.sqrt(0.75), kp)
    with pytest.raises(DomainError, match="jacobi_sn_cn_dn requires 0 < kp <= 1"):
        jacobi_sn_cn_dn(1.0, kp)


def test_sigma_against_quadrature():
    """sigma = int_0^1 dt / sqrt(1 - t^4), integrable singularity at t = 1."""
    oracle, err = scipy.integrate.quad(lambda t: (1.0 - t**4) ** -0.5, 0.0, 1.0)
    assert err < 1e-8
    assert sigma_constant() == pytest.approx(oracle, abs=1e-10)
    assert sigma_constant() == pytest.approx(1.311, abs=5e-4)


def test_sigma_closed_form():
    # Gamma-function closed form of the lemniscatic integral
    oracle = (
        scipy.special.gamma(0.25)
        * scipy.special.gamma(0.5)
        / (4.0 * scipy.special.gamma(0.75))
    )
    assert sigma_constant() == pytest.approx(oracle, rel=1e-14)


class TestComparisonBounds:
    """Bounds f(z) <= envelope(z) on (0, 1/2) controlling every energy at once.

    f is the fourth power of the elliptic integral, g the fourth power of
    its chord approximation, h an explicit two-piece rational envelope
    depending on the split point eps.  f < h is what the stability bound
    needs; how small eps can go is a sharpness question with a known
    cutoff between 26/27 and 27/28.
    """

    zs = np.linspace(0.0, 0.5, 2002)[1:-1]

    def _triples(self, eps):
        return np.array([comparison_bounds(float(z), eps) for z in self.zs])

    def test_f_below_g_everywhere(self):
        vals = self._triples(21 / 22)
        assert np.all(vals[:, 0] < vals[:, 1])

    def test_chain_holds_at_eps_21_22(self):
        vals = self._triples(21 / 22)
        assert np.all(vals[:, 0] < vals[:, 2])
        assert np.all(vals[:, 1] < vals[:, 2])

    def test_f_below_h_at_eps_26_27_but_g_escapes(self):
        vals = self._triples(26 / 27)
        assert np.all(vals[:, 0] < vals[:, 2])
        assert np.any(vals[:, 1] >= vals[:, 2])

    def test_f_escapes_h_at_eps_27_28(self):
        vals = self._triples(27 / 28)
        assert np.any(vals[:, 0] >= vals[:, 2])

    def test_endpoint_values(self):
        # f and g agree at both ends of (0, 1/2): (pi/2)^4 and 4 sigma^4
        f0, g0, _ = comparison_bounds(1e-12, 21 / 22)
        assert f0 == pytest.approx((math.pi / 2) ** 4, rel=1e-9)
        assert g0 == pytest.approx((math.pi / 2) ** 4, rel=1e-9)
        f1, g1, _ = comparison_bounds(0.5 - 1e-12, 21 / 22)
        assert f1 == pytest.approx(4 * sigma_constant() ** 4, rel=1e-9)
        assert g1 == pytest.approx(4 * sigma_constant() ** 4, rel=1e-9)

    @pytest.mark.parametrize("z,eps", [(0.0, 0.9), (0.5, 0.9), (-0.1, 0.9),
                                       (0.25, 0.0), (0.25, 1.0)])
    def test_domain(self, z, eps):
        with pytest.raises(DomainError):
            comparison_bounds(z, eps)
