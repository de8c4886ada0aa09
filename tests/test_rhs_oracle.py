"""The three DOP853 right-hand sides compute on Python floats, from the list
the step loop passes them.  Their oracle is the numpy-scalar form each one
replaced, kept here as written: on every state both give the same bytes, or
both fail on overflow.  This pins the order of rounding of every derivative
entry.  A float overflows to inf without a word, so each RHS checks its
derivative entries one by one and raises FloatingPointError."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import beammodes.hill  # noqa: E402
from beammodes.duffing import ModeParams, duffing_rhs  # noqa: E402
from beammodes.errors import IntegrationError  # noqa: E402
from beammodes.integrate import integrate  # noqa: E402
from beammodes.twomode import TwoModeConfig, two_mode_rhs  # noqa: E402

# The errors each form may raise on overflow: numpy's in raise mode, the
# float forms' own check, and a float **.
OVERFLOW = (FloatingPointError, OverflowError)


def numpy_two_mode_rhs(config):
    m2 = float(config.m**2)
    n2 = float(config.n**2)
    km = m2 * (m2 - config.P)
    kn = n2 * (n2 - config.P)

    def rhs(t, y):
        w, wd, z, zd = y
        shared = m2 * w * w + n2 * z * z
        return np.array([wd, -(km + m2 * shared) * w,
                         zd, -(kn + n2 * shared) * z])

    return rhs


def numpy_coupled_rhs(params, linear, coupling):
    stiffness = params.stiffness
    quartic = float(params.k) ** 4

    def coupled(t, y):
        theta = y[0]
        a = linear + coupling * theta * theta
        return np.array([y[1], -(stiffness + quartic * theta * theta) * theta,
                         y[3], -a * y[2], y[5], -a * y[4], a, max(a, 0.0) ** 2])

    return coupled


def numpy_duffing_rhs(params):
    stiffness = params.stiffness
    quartic = float(params.k) ** 4

    def rhs(t, y):
        theta = y[0]
        return np.array([y[1], -(stiffness + quartic * theta * theta) * theta])

    return rhs


def outcome(rhs, y):
    """The bytes of rhs(0, y) in numpy's raise mode, or "overflow".  A float
    form takes y as the integrator passes it, a list of floats; a numpy form
    takes an array, so that it computes on numpy scalars."""
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            return np.array(rhs(0.0, y)).tobytes()
        except OVERFLOW:
            return "overflow"


# Magnitudes 1e-150 to 1e150, log-uniform and as hypothesis draws them, with
# both signs and zeros.
magnitudes = st.one_of(st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e),
                       st.floats(1e-150, 1e150), st.just(0.0))
entries = st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]), magnitudes)
loads = st.one_of(st.floats(-100.0, 100.0), entries)
modes = st.integers(1, 8)

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                             database=None)


def state(values):
    return np.array(values, dtype=float)


@PROPERTY_SETTINGS
@given(modes, modes, loads, st.lists(entries, min_size=4, max_size=4))
def test_two_mode_rhs_matches_its_numpy_form(m, n, P, y):
    if m == n:
        n = m + 1
    config = TwoModeConfig(m=m, n=n, P=P, w0=1.0, w1=0.0, z0=0.0, z1=1e-4)
    assert outcome(two_mode_rhs(config), y) == \
        outcome(numpy_two_mode_rhs(config), state(y))


@PROPERTY_SETTINGS
@given(modes, loads, entries, entries, st.lists(entries, min_size=8, max_size=8))
def test_coupled_rhs_matches_its_numpy_form(k, P, linear, coupling, y):
    params = ModeParams(k=k, P=P)
    assert outcome(beammodes.hill._coupled_rhs(params, linear, coupling), y) == \
        outcome(numpy_coupled_rhs(params, linear, coupling), state(y))


@PROPERTY_SETTINGS
@given(modes, loads, st.lists(entries, min_size=2, max_size=2))
def test_duffing_rhs_matches_its_numpy_form(k, P, y):
    params = ModeParams(k=k, P=P)
    assert outcome(duffing_rhs(params), y) == outcome(numpy_duffing_rhs(params), state(y))


class TestEntryByEntry:
    CONFIG = TwoModeConfig(m=1, n=2, P=0.0, w0=1.0, w1=0.0, z0=0.0, z1=1e-4)

    def test_overflows_of_opposite_sign_are_refused(self):
        # w'' = +inf and z'' = -inf: each entry overflows, and their sum is
        # no overflow but NaN
        with pytest.raises(FloatingPointError, match="overflow"):
            two_mode_rhs(self.CONFIG)(0.0, [-1e110, 0.0, 1e110, 0.0])

    @pytest.mark.parametrize("y", [[1e110, 0.0, 0.0, 0.0], [0.0, 0.0, 1e110, 0.0]])
    def test_one_overflowing_entry_is_refused(self, y):
        with pytest.raises(FloatingPointError, match="overflow"):
            two_mode_rhs(self.CONFIG)(0.0, y)

    def test_finite_entries_whose_sum_overflows_are_served(self):
        # w = 4z puts w'' and z'' both near -1e308: their sum overflows,
        # no entry does
        w = (8e307) ** (1.0 / 3.0)
        y = [w, 0.0, w / 4.0, 0.0]
        dy = two_mode_rhs(self.CONFIG)(0.0, y)
        assert np.isfinite(dy).all() and math.isinf(dy[1] + dy[3])
        assert np.array(dy).tobytes() == outcome(numpy_two_mode_rhs(self.CONFIG), state(y))

    @pytest.mark.parametrize("linear,coupling,y,error", [
        (0.0, 0.0, [1e110, 0, 0, 0, 0, 0, 0, 0], FloatingPointError),   # theta''
        (1e154, 0.0, [0, 0, 1e160, 0, 0, 0, 0, 0], FloatingPointError),  # -a xi1
        (1e154, 0.0, [0, 0, 0, 0, 1e160, 0, 0, 0], FloatingPointError),  # -a xi2
        (0.0, 1e300, [1e10, 0, 0, 0, 0, 0, 0, 0], FloatingPointError),   # a
        (1e200, 0.0, [0, 0, 0, 0, 0, 0, 0, 0], OverflowError),           # a^2
    ])
    def test_each_coupled_entry_is_checked(self, linear, coupling, y, error):
        rhs = beammodes.hill._coupled_rhs(ModeParams(k=1, P=1.0), linear, coupling)
        with pytest.raises(error):
            rhs(0.0, [float(v) for v in y])

    def test_duffing_acceleration_is_checked(self):
        with pytest.raises(FloatingPointError, match="overflow"):
            duffing_rhs(ModeParams(k=1, P=1.0))(0.0, [1e110, 0.0])


def test_a_float_power_overflow_is_an_integration_error():
    """An RHS whose float ** overflows fails the run as numpy's raise mode
    would, with an IntegrationError that names the overflow."""
    with pytest.raises(IntegrationError, match="overflow"):
        integrate(lambda t, y: [y[0] ** 8], [1e40], (0.0, 1.0))
