"""Known values for the benchmark's reference computations.

    python3 -m pytest perfbench/test_oracles.py
"""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("mpmath")
sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402


def test_sigma_constant():
    assert oracles.sigma() == pytest.approx(1.3110287771, abs=1e-10)


@pytest.mark.parametrize("k, P", [(1, 0.0), (2, 3.0), (3, 4.5), (5, 24.9)])
def test_period_small_energy_limit(k, P):
    assert oracles.period(k, P, 1e-30) == pytest.approx(
        oracles.small_energy_period(k, P), rel=1e-12)


@pytest.mark.parametrize("k, P", [(1, 2.0), (2, 5.0), (3, 19.0), (5, 51.0)])
def test_period_well_bottom_limit(k, P):
    floor = -0.25 * (P - k * k) ** 2
    assert oracles.period(k, P, floor * (1.0 - 1e-15)) == pytest.approx(
        oracles.bottom_period(k, P), rel=1e-12)


def test_period_at_critical_load_follows_the_quartic_law():
    # P = k^2: theta'' + k^4 theta^3 = 0, so T = 4 sqrt 2 sigma / (k (4E)^(1/4)).
    k, E = 3, 7.5
    want = 4.0 * math.sqrt(2.0) * oracles.sigma() / (k * (4.0 * E) ** 0.25)
    assert oracles.period(k, float(k * k), E) == pytest.approx(want, rel=1e-14)


def test_period_rejects_energies_without_an_orbit():
    with pytest.raises(ValueError):
        oracles.period(1, 2.0, -0.3)      # below the floor -1/4
    with pytest.raises(ValueError):
        oracles.period(2, 1.0, -0.1)      # no well at all


@pytest.mark.parametrize("m, n, P", [(1, 2, 0.5), (2, 3, 2.0), (3, 1, 0.0)])
def test_hill_trace_small_energy_is_constant_coefficient(m, n, P):
    # theta -> 0: xi'' + n^2 (n^2 - P) xi = 0 over half the linear period.
    t_end = math.pi / (m * math.sqrt(m * m - P))
    want = 2.0 * math.cos(n * math.sqrt(n * n - P) * t_end)
    assert oracles.hill_trace(m, n, P, 1e-12) == pytest.approx(want, abs=1e-5)


# Gate 7: (m, n, P, verdict just above the floor, verdict at E = 1e6).
PREDICTION_ROWS = [
    (2, 1, 0.0, "stable", "stable"),
    (2, 1, 3.0, "unstable", "stable"),
    (2, 1, 6.0, "unstable", "stable"),
    (1, 2, 0.0, "stable", "stable"),
    (1, 2, 1.0, None, "stable"),
    (1, 2, 3.0, "stable", "stable"),
    (1, 2, 6.0, "stable", "stable"),
]


@pytest.mark.parametrize("m, n, P, low, high", PREDICTION_ROWS)
def test_hill_trace_matches_the_prediction_table(m, n, P, low, high):
    floor = -0.25 * (P - m * m) ** 2 if m * m < P else 0.0
    if low is not None:
        # (1, 2, 0) sits 1e-5 inside |trace| = 2 here: use the program's band.
        trace = oracles.hill_trace(m, n, P, floor + 1e-3)
        assert oracles.verdict_of_trace(trace, band=1e-6) == low
    assert oracles.verdict_of_trace(oracles.hill_trace(m, n, P, 1e6)) == high
    assert oracles.large_energy_verdict(Fraction(n * n, m * m)) == high


@pytest.mark.parametrize("gamma, membership", [
    (1.5, "I_U"), (2.25, "I_U"), (4.0, "I_S"), (5.0, "I_S"), (5.44, "I_S"),
    (8.0, "I_U"), (12.0, "I_S"), (Fraction(49, 9), "I_S"), (0.25, "I_S"),
    (1.0, "boundary"), (3, "boundary"), (6.0, "boundary"), (10, "boundary"),
    (15.0, "boundary"), (math.nextafter(6.0, 0.0), "I_S"),
])
def test_gamma_membership(gamma, membership):
    assert oracles.gamma_membership(gamma) == membership


def test_verdict_band():
    assert oracles.verdict_of_trace(-1.9) == "stable"
    assert oracles.verdict_of_trace(-2.1) == "unstable"
    assert oracles.verdict_of_trace(2.0 + 0.5 * oracles.MARGINAL_BAND) == "marginal"


def test_two_mode_energy_splits_into_modes():
    m, n, P = 2, 1, 3.0
    w0 = oracles.outer_amplitude(m, P, 1.0)
    states = np.array([[w0, 0.0, 0.0, 0.0], [0.0, math.sqrt(2.0), 0.0, 0.0]])
    assert oracles.two_mode_energy(m, n, P, states) == pytest.approx([1.0, 1.0])
    assert oracles.relative_drift(m, n, P, states) == pytest.approx(0.0, abs=1e-14)
