"""The input checks in errors: each refuses what its kind of input cannot
be, with a DomainError that names the input, and accepts the rest; and
every entry that takes a mode pair refuses one past the float range, and
every entry that takes a mode one whose k^4 is past it."""

import math

import pytest

from beammodes.atlas import SweepSpec, VerdictSource, find_thresholds, sweep
from beammodes.duffing import ModeParams, period_of
from beammodes.errors import (MAX_COUNT, DomainError, require_count, require_finite,
                              require_mode_pair, require_positive_finite)
from beammodes.hill import classify_stability
from beammodes.regime import classify_gamma, resonance_diagnostics, table_regime
from beammodes.twomode import TwoModeConfig


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_require_finite(x):
    with pytest.raises(DomainError, match="^load P must be finite"):
        require_finite("load P", x)
    for ok in (0.0, -1.0, 1e300):
        require_finite("load P", ok)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_require_positive_finite(x):
    with pytest.raises(DomainError, match="^t_end must be positive and finite"):
        require_positive_finite("t_end", x)
    for ok in (5e-324, 1.0, 1e300):
        require_positive_finite("t_end", ok)


@pytest.mark.parametrize("m,n,P,message", [
    (1, 2, math.nan, "^load P must be finite"),
    (1, 2, math.inf, "^load P must be finite"),
    (1, 2, -math.inf, "^load P must be finite"),
    (0, 2, 0.0, "^m must be a positive integer"),
    (-1, 2, 0.0, "^m must be a positive integer"),
    (1, 0, 0.0, "^n must be a positive integer"),
    (1, -1, 0.0, "^n must be a positive integer"),
    (1.0, 2, 0.0, "^m must be a positive integer"),
    (2, 2, 0.0, "^modes m and n must be distinct"),
    # n^2 past the float range, and n^2 within it but (P - n^2)^2 past it
    (1, 10**200, 0.0, r"^\(P - n\^2\)\^2 must be finite"),
    (1, 10**100, 0.0, r"^\(P - n\^2\)\^2 must be finite"),
    (10**200, 1, 0.0, r"^\(P - m\^2\)\^2 must be finite"),
    # (P - k^2)^2 within the float range, k^4 past it
    (10**150, 10**150 + 1, 1e300, r"^m\^4 must be finite"),
    (1, 12 * 10**76, 1e154, r"^n\^4 must be finite"),
])
def test_require_mode_pair(m, n, P, message):
    with pytest.raises(DomainError, match=message):
        require_mode_pair(m, n, P)
    require_mode_pair(2, 1, -3.0)


@pytest.mark.parametrize("n", [-1, 3, MAX_COUNT + 1, 10**12, 4.0, math.nan, None])
def test_require_count(n):
    with pytest.raises(DomainError,
                       match=f"^budget must be an integer from 4 to {MAX_COUNT}"):
        require_count("budget", n, 4)
    for ok in (4, 5, MAX_COUNT):
        require_count("budget", ok, 4)


# Every entry that takes a mode pair, at n = 10^200, whose square is past the
# float range: each refuses it with a DomainError, not an OverflowError.
HUGE = 10**200
OVERFLOWING_PAIR = {
    "classify_stability": lambda: classify_stability(1, HUGE, 0.0, 1.0),
    "table_regime": lambda: table_regime(1, HUGE, 0.0),
    "resonance_diagnostics": lambda: resonance_diagnostics(1, HUGE, 0.0),
    "classify_gamma": lambda: classify_gamma(1, HUGE),
    "TwoModeConfig": lambda: TwoModeConfig(m=1, n=HUGE, P=0.0, w0=1.0, w1=0.0,
                                           z0=0.0, z1=0.0),
    "find_thresholds": lambda: find_thresholds(1, HUGE, 0.0, [1.0, 2.0]),
    "sweep monodromy": lambda: sweep(SweepSpec(P=0.0, modes=[(1, HUGE)], energy_grid=[1.0])),
    "sweep limit": lambda: sweep(SweepSpec(P=0.0, modes=[(1, HUGE)], energy_grid=[1.0],
                                           verdict_source=VerdictSource.CAZENAVE_LIMIT)),
}


@pytest.mark.parametrize("entry", list(OVERFLOWING_PAIR))
def test_an_overflowing_mode_number_is_a_domain_error(entry):
    with pytest.raises(DomainError, match=r"\(P - n\^2\)\^2|gamma = n\^2 / m\^2"):
        OVERFLOWING_PAIR[entry]()


# A mode number whose k^2 lies next to the load, so that (P - k^2)^2 is
# finite, but whose k^4, which the cubic term takes, is past the float range.
QUARTIC_OVERFLOW = {
    "ModeParams": lambda: ModeParams(k=10**150, P=1e300),
    "period_of": lambda: period_of(ModeParams(k=10**150, P=1e300), 1.0),
    "classify_stability": lambda: classify_stability(10**150, 10**150 + 1, 1e300, 1.0),
}


@pytest.mark.parametrize("entry", list(QUARTIC_OVERFLOW))
def test_a_mode_number_whose_fourth_power_overflows_is_a_domain_error(entry):
    with pytest.raises(DomainError, match=r"^[km]\^4 must be finite"):
        QUARTIC_OVERFLOW[entry]()
