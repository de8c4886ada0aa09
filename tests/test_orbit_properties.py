"""Property tests of DuffingOrbit.time_at_square, the inverse of theta^2
along the first half coefficient period, against the closed-form states."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from beammodes import ModeParams  # noqa: E402
from beammodes.duffing import orbit_from_energy  # noqa: E402

modes = st.integers(min_value=1, max_value=5)
# P / k^2 for a sign-changing orbit (any load) and for a well (P > k^2)
load_ratios = st.floats(min_value=0.0, max_value=4.0)
well_ratios = st.floats(min_value=1.05, max_value=4.0)
# E = scale * 10^exponent on a cn orbit, scale = max((P - k^2)^2, 1)
exponents = st.floats(min_value=-6.0, max_value=8.0)
# 10^-gap: how close a well orbit lies to the floor or to the separatrix
gaps = st.floats(min_value=1.0, max_value=9.0)
# where theta^2 lies between sq_min (0) and sq_hi (1)
fractions = st.floats(min_value=0.0, max_value=1.0)

# Derandomized and without an example database, so every run draws the
# same examples.
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)


def check_round_trip(orbit, fraction):
    theta_sq = orbit.sq_min + fraction * (orbit.sq_hi - orbit.sq_min)
    t = orbit.time_at_square(theta_sq)
    assert 0.0 <= t <= 0.5 * orbit.coefficient_period
    (theta, dtheta), = orbit.states([t])
    # 1e-12 of theta^2, plus what rounding t moves theta^2 by: next to a
    # zero of cn that term dominates, as theta^2 is then far below sq_hi
    slack = 1e-12 * theta_sq + 8.0 * math.ulp(t) * abs(2.0 * theta * dtheta)
    assert abs(theta * theta - theta_sq) <= slack


def check_ends(orbit):
    # theta^2 falls from sq_hi to 0 on a cn orbit, rises from sq_lo to
    # sq_hi on a dn orbit
    half = 0.5 * orbit.coefficient_period
    first, last = (orbit.sq_hi, orbit.sq_min) if orbit.sign_changing else \
        (orbit.sq_min, orbit.sq_hi)
    assert orbit.time_at_square(first) == 0.0
    assert orbit.time_at_square(last) == pytest.approx(half, rel=1e-14, abs=0.0)


@PROPERTY_SETTINGS
@given(modes, load_ratios, exponents, fractions)
def test_cn_orbit_round_trip(k, ratio, exponent, fraction):
    P = ratio * k * k
    E = max((P - k * k) ** 2, 1.0) * 10.0 ** exponent
    orbit = orbit_from_energy(ModeParams(k=k, P=P), E)
    assert orbit.sign_changing
    check_round_trip(orbit, fraction)
    check_ends(orbit)


@PROPERTY_SETTINGS
@given(modes, well_ratios, gaps, fractions, st.booleans())
def test_well_orbit_round_trip(k, ratio, gap, fraction, near_floor):
    # E = floor (1 - 10^-gap) next to the floor, floor 10^-gap next to the
    # separatrix
    params = ModeParams(k=k, P=ratio * k * k)
    depth = 1.0 - 10.0 ** -gap if near_floor else 10.0 ** -gap
    orbit = orbit_from_energy(params, params.floor_energy * depth)
    assert not orbit.sign_changing
    check_round_trip(orbit, fraction)
    check_ends(orbit)
