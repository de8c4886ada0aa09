"""Property tests of the Jacobi functions: the identities that tie sn, cn
and dn together, and the half-period shift."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from beammodes.special import elliptic_k_from_complement, jacobi_sn_cn_dn  # noqa: E402

# kp = 10^exponent, from next to the separatrix (k -> 1) to k = 0
exponents = st.floats(min_value=-8.0, max_value=0.0)
# u in units of the quarter period K, over two full periods
quarters = st.floats(min_value=-4.0, max_value=4.0)

# Derandomized and without an example database, so every run draws the
# same examples.
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)


def evaluate(exponent, quarter):
    kp = 10.0 ** exponent
    K = elliptic_k_from_complement(kp)
    return kp, K, quarter * K


@PROPERTY_SETTINGS
@given(exponents, quarters)
def test_sn_and_cn_lie_on_the_circle(exponent, quarter):
    kp, _, u = evaluate(exponent, quarter)
    sn, cn, _ = jacobi_sn_cn_dn(u, kp)
    # each Landen level rounds cn by a few units in the last place; up to
    # eight levels leave sn and cn within 1e-14 of the truth
    assert float(sn * sn + cn * cn) == pytest.approx(1.0, rel=0, abs=3e-14)


@PROPERTY_SETTINGS
@given(exponents, quarters)
def test_dn_squared_is_kp_squared_plus_k_squared_cn_squared(exponent, quarter):
    kp, _, u = evaluate(exponent, quarter)
    _, cn, dn = jacobi_sn_cn_dn(u, kp)
    k2 = (1.0 - kp) * (1.0 + kp)
    # to a few units in the last place of dn^2, which may dwarf k^2 cn^2
    assert abs(float(dn * dn - kp * kp - k2 * cn * cn)) <= 1e-15 * float(dn * dn)


@PROPERTY_SETTINGS
@given(exponents, quarters)
def test_half_period_shift_flips_sn_and_cn(exponent, quarter):
    # sn(u + 2K) = -sn(u), cn(u + 2K) = -cn(u), dn(u + 2K) = dn(u)
    kp, K, u = evaluate(exponent, quarter)
    here = np.array(jacobi_sn_cn_dn(u, kp))
    there = np.array(jacobi_sn_cn_dn(u + 2.0 * K, kp))
    # rounding u + 2K moves the argument by up to ulp(6K); the functions
    # move by at most that times their slope, which is at most 1
    slack = 8.0 * math.ulp(6.0 * K)
    assert np.abs(there[:2] + here[:2]).max() <= slack
    assert abs(there[2] - here[2]) <= slack
