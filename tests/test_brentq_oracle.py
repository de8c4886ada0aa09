"""scipy.optimize.brentq is the oracle of integrate.brentq: called on the
same function, the two make the same probes in the same order and return
the same float, or raise the same error."""

import math

import pytest
from scipy.optimize import brentq as scipy_brentq

from beammodes.integrate import BRENT_MAXITER, brentq

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def run(solver, f, a, b, xtol):
    """(probes as hex strings, the root's hex or the error's type and text)."""
    probes = []

    def probed(x):
        probes.append(x.hex())
        return f(x)

    try:
        outcome = solver(probed, a, b, xtol=xtol).hex()
    except (ValueError, RuntimeError) as exc:
        outcome = (type(exc), str(exc))
    return probes, outcome


def same_as_scipy(f, a, b, xtol):
    ours = run(brentq, f, a, b, xtol)
    assert ours == run(scipy_brentq, f, a, b, xtol)
    return ours


def smooth(c, s, p, r):
    """A cubic, increasing for s > 0: its slope's discriminant is -12 r."""
    q = p * p / 3.0 + r
    return lambda x: s * ((x - c) + p * (x - c) ** 2 + q * (x - c) ** 3)


def kinked(c, s, p, r):
    """A slope that jumps (1 + r)-fold at the root."""
    return lambda x: s * (x - c) * (1.0 if x < c else 1.0 + r)


def nearly_flat(c, s, p, r):
    """Values that underflow near the root, where Brent's divisions meet
    zero differences."""
    return lambda x: s * 1e-300 * (x - c) ** 5


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from([smooth, kinked, nearly_flat]),
       c=st.floats(-10.0, 10.0), s=st.floats(0.1, 10.0), negate=st.booleans(),
       p=st.floats(-3.0, 3.0), r=st.floats(0.01, 10.0),
       below=st.floats(1e-6, 10.0), above=st.floats(1e-6, 10.0), swap=st.booleans(),
       log_xtol=st.floats(-15.0, -2.0))
def test_probes_and_root_are_scipys(family, c, s, negate, p, r, below, above, swap,
                                    log_xtol):
    a, b = c - below, c + above
    if swap:
        a, b = b, a
    f = family(c, -s if negate else s, p, r)
    probes, _ = same_as_scipy(f, a, b, 10.0 ** log_xtol)
    assert len(probes) <= BRENT_MAXITER + 2


def test_a_step_at_the_short_step_bound_bisects():
    """On this cubic, twice one interpolated step falls in
    [3 |sbis| - delta, 3 |sbis|), sbis half the bracket: scipy bisects."""
    same_as_scipy(lambda x: -3.4 - 4.8 * x + 4.9 * x ** 2 - 4.5 * x ** 3, -2.27, 1.67, 1e-2)


@pytest.mark.parametrize("a,b", [(0.0, 2.0), (-2.0, 0.0)])
def test_an_exact_zero_at_an_end_is_returned_after_two_calls(a, b):
    probes, root = same_as_scipy(lambda x: x, a, b, 1e-12)
    assert len(probes) == 2 and float.fromhex(root) == 0.0


def test_ends_of_one_sign_are_refused():
    _, (kind, text) = same_as_scipy(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12)
    assert kind is ValueError and text == "f(a) and f(b) must have different signs"


@pytest.mark.parametrize("a,b", [(-1.0, 2.0), (2.0, -1.0)])
def test_a_nan_value_is_refused(a, b):
    probes, (kind, text) = same_as_scipy(lambda x: math.nan if x > 1.5 else x, a, b, 1e-12)
    assert kind is ValueError and text.endswith("is NaN; solver cannot continue.")
    assert probes[-1] == (2.0).hex()


def test_no_convergence_in_the_iteration_budget():
    """|f| is 1 on both sides of its step, so every iteration bisects, and
    halving the bracket from 1e300 down to xtol takes far more than 100."""
    probes, (kind, text) = same_as_scipy(lambda x: 1.0 if x > 1e-300 else -1.0,
                                         -1e300, 1e300, 1e-300)
    assert kind is RuntimeError and text == f"Failed to converge after {BRENT_MAXITER} iterations."
    assert len(probes) == BRENT_MAXITER + 2
