"""Property tests of the mode period: monotone branches and their limits."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from beammodes import ModeParams, period_of  # noqa: E402

modes = st.integers(min_value=1, max_value=5)
# P / k^2 below, at and above 1, so every branch is drawn
load_ratios = st.floats(min_value=0.0, max_value=4.0)
# E = scale * 10^exponent, scale = max((P - k^2)^2, 1)
exponents = st.floats(min_value=-6.0, max_value=8.0)
# relative steps in E that are well above rounding
steps = st.floats(min_value=1e-4, max_value=3.0)
# depth of a well orbit as a fraction of the well depth
depths = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)

# Derandomized and without an example database, so every run draws the
# same examples.
PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)


@PROPERTY_SETTINGS
@given(modes, load_ratios, exponents, steps)
def test_positive_branch_decreases_in_energy(k, ratio, exponent, step):
    P = ratio * k * k
    params = ModeParams(k=k, P=P)
    E = max((P - k * k) ** 2, 1.0) * 10.0 ** exponent
    assert period_of(params, E * (1.0 + step)) < period_of(params, E)


@PROPERTY_SETTINGS
@given(modes, st.floats(min_value=1.05, max_value=4.0), depths, depths)
def test_well_branch_increases_in_energy(k, ratio, a, b):
    lo, hi = sorted((a, b))
    hypothesis.assume(hi - lo > 1e-6)
    params = ModeParams(k=k, P=ratio * k * k)
    # E = floor * depth: the shallower orbit has the higher energy
    assert period_of(params, params.floor_energy * lo) > \
        period_of(params, params.floor_energy * hi)


@PROPERTY_SETTINGS
@given(modes, st.floats(min_value=0.0, max_value=0.95))
def test_small_energy_limit(k, ratio):
    P = ratio * k * k
    gap = k * k - P
    limit = 2.0 * math.pi / (k * math.sqrt(gap))
    assert period_of(ModeParams(k=k, P=P), 1e-10 * gap * gap) == \
        pytest.approx(limit, rel=1e-8)


@PROPERTY_SETTINGS
@given(modes, st.floats(min_value=1.05, max_value=4.0))
def test_well_bottom_limit(k, ratio):
    params = ModeParams(k=k, P=ratio * k * k)
    limit = math.pi * math.sqrt(2.0) / (k * math.sqrt(params.P - k * k))
    assert period_of(params, params.floor_energy * (1.0 - 1e-10)) == \
        pytest.approx(limit, rel=1e-8)
