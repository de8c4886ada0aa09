"""The input checks in errors: each refuses what its kind of input cannot
be, with a DomainError that names the input, and accepts the rest."""

import math

import pytest

from beammodes.errors import (MAX_COUNT, DomainError, require_count, require_finite,
                              require_mode_pair, require_positive_finite)


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
