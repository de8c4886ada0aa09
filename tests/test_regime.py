"""Frequency-ratio intervals, resonance diagnostics, and the regime table."""

import dataclasses
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from beammodes import classify_stability, table_regime
from beammodes.errors import DomainError
from beammodes.hill import Verdict, classify_matrix
from beammodes.integrate import find_zero_crossing, integrate
from beammodes.regime import (
    _LIMIT_CONFIG,
    _limit_rhs_u,
    FrequencyRatioClass,
    GammaMembership,
    Ordering,
    Prediction,
    RegimeReport,
    _classify_ratio,
    bottom_frequency_ratio,
    cazenave_limit_classify,
    classify_gamma,
    classify_gamma_value,
    resonance_diagnostics,
    resonance_quartic,
    resonance_quartic_scan,
)


def oracle_membership(gamma: Fraction):
    """Exact interval walk: I_U(k) = ((k+1)(2k+1), (k+1)(2k+3)) and
    I_S(k) = (k(2k+1), (k+1)(2k+1)) tile (0, inf) up to shared endpoints."""
    if gamma < 1:
        return GammaMembership.STABLE_INTERVAL, 0
    for k in range(0, 200):
        lo_u = Fraction((k + 1) * (2 * k + 1))
        hi_u = Fraction((k + 1) * (2 * k + 3))
        if gamma == lo_u:
            return GammaMembership.BOUNDARY_LOWER, k
        if lo_u < gamma < hi_u:
            return GammaMembership.UNSTABLE_INTERVAL, k
        if gamma == hi_u:
            return GammaMembership.BOUNDARY_UPPER, k
        if hi_u < gamma < Fraction((k + 2) * (2 * k + 3)):
            return GammaMembership.STABLE_INTERVAL, k + 1
    raise AssertionError("gamma beyond oracle range")


def assert_in_interval(num: int, den: int, membership, k: int) -> None:
    """num/den lies in the interval (or on the endpoint) named by k."""
    lo_u, hi_u = (k + 1) * (2 * k + 1), (k + 1) * (2 * k + 3)
    if membership is GammaMembership.STABLE_INTERVAL:
        assert den * k * (2 * k + 1) < num < den * lo_u
    elif membership is GammaMembership.UNSTABLE_INTERVAL:
        assert den * lo_u < num < den * hi_u
    elif membership is GammaMembership.BOUNDARY_LOWER:
        assert num == den * lo_u
    else:
        assert num == den * hi_u


class TestGammaClassification:
    def test_examples(self):
        assert classify_gamma(1, 2).membership is GammaMembership.STABLE_INTERVAL
        assert classify_gamma(1, 2).k_index == 1
        assert classify_gamma_value(2.25).membership is \
            GammaMembership.UNSTABLE_INTERVAL
        assert classify_gamma_value(2.25).k_index == 0
        assert classify_gamma(1, 6).membership is GammaMembership.BOUNDARY_UPPER

    def test_exhaustive_against_fraction_oracle(self):
        for m in range(1, 41):
            for n in range(1, 41):
                got = classify_gamma(m, n)
                want, k = oracle_membership(Fraction(n * n, m * m))
                assert got.membership is want, (m, n)
                assert got.k_index == k, (m, n)

    def test_small_and_unit_gamma(self):
        assert classify_gamma(2, 1).membership is GammaMembership.STABLE_INTERVAL
        assert classify_gamma(2, 1).k_index == 0
        assert classify_gamma(3, 3).membership is GammaMembership.BOUNDARY_LOWER

    def test_gamma_value_matches_pair_form(self):
        for m, n in [(1, 2), (2, 3), (1, 5), (3, 7), (2, 9)]:
            a = classify_gamma(m, n)
            b = classify_gamma_value((n * n) / (m * m))
            assert a.membership is b.membership
            assert a.k_index == b.k_index

    def test_rejects_invalid_input(self):
        with pytest.raises(DomainError):
            classify_gamma(0, 2)
        with pytest.raises(DomainError):
            classify_gamma(1.5, 2)
        with pytest.raises(DomainError):
            classify_gamma_value(0.0)
        with pytest.raises(DomainError):
            classify_gamma_value(-2.0)

    def test_endpoints_and_neighbours_match_interval_walk(self):
        # every endpoint (k+1)(2k+1), (k+1)(2k+3) with k <= 50, and the
        # adjacent floats on both sides, against the exact interval walk
        for k in range(51):
            for end in ((k + 1) * (2 * k + 1), (k + 1) * (2 * k + 3)):
                for gamma in (math.nextafter(end, 0.0), float(end),
                              math.nextafter(end, math.inf)):
                    got = classify_gamma_value(gamma)
                    want, k_want = oracle_membership(Fraction(gamma))
                    assert got.membership is want, gamma
                    assert got.k_index == k_want, gamma

    @pytest.mark.parametrize("num,den", [
        (10**18, 1), (10**18, 3), (10**18 + 1, 1), (7 * 10**40 + 3, 10**20),
    ])
    def test_large_ratio_lies_in_its_interval(self, num, den):
        assert_in_interval(num, den, *_classify_ratio(num, den))

    def test_huge_gamma_is_fast(self):
        start = time.perf_counter()
        by_value = classify_gamma_value(1e20)
        by_pair = classify_gamma(1, 10**9)
        assert time.perf_counter() - start < 0.1
        assert_in_interval(*(1e20).as_integer_ratio(), by_value.membership,
                           by_value.k_index)
        assert_in_interval(10**18, 1, by_pair.membership, by_pair.k_index)

    def test_to_dict(self):
        d = classify_gamma(1, 2).to_dict()
        json.dumps(d)
        assert d["membership"] == "I_S"


class TestResonance:
    def test_integer_ratio_detected(self):
        diag = resonance_diagnostics(1, 2, 0.0)
        assert diag.ell == 4
        assert diag.mu == 3

    def test_rational_load_integer_ratio(self):
        # sqrt((4 - 3/7)/(1 - 3/7)) * 2 = 5 exactly
        diag = resonance_diagnostics(1, 2, 3.0 / 7.0)
        assert diag.ell == 5
        assert diag.mu == 4

    def test_non_integer_ratio_has_no_ell(self):
        # linear ratio 2 sqrt(3.5) / sqrt(0.5) = 2 sqrt(7) ~ 5.29
        diag = resonance_diagnostics(1, 2, 0.5)
        assert diag.ell is None
        assert diag.mu == 5

    def test_well_ratio_and_quartic(self):
        diag = resonance_diagnostics(1, 2, 7.0)
        assert diag.L == pytest.approx(2.0, rel=1e-14)
        assert diag.L_is_integer
        assert diag.quartic_value == pytest.approx(-76.0, rel=1e-12)
        # outside the well the ratio is undefined
        assert diag.ell is None and diag.mu is None

    def test_bottom_ratio_domain(self):
        assert bottom_frequency_ratio(1, 2, 7.0) == pytest.approx(2.0)
        with pytest.raises(DomainError):
            bottom_frequency_ratio(1, 2, 0.5)
        with pytest.raises(DomainError):
            bottom_frequency_ratio(2, 1, 7.0)

    def test_quartic_closed_form(self):
        # 3 m^4 L^4 - (3 m^4 + 4 n^2 m^2) L^2 + 4 n^2 m^2 - 4 n^4
        assert resonance_quartic(1, 2, 2.0) == pytest.approx(
            3 * 16 - (3 + 16) * 4 + 16 - 64, rel=1e-14)

    def test_non_integer_well_ratio(self):
        diag = resonance_diagnostics(1, 2, 3.0)
        assert diag.L == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-14)
        assert not diag.L_is_integer

    def test_to_dict(self):
        json.dumps(resonance_diagnostics(1, 2, 7.0).to_dict())


class TestQuarticScan:
    def test_no_integer_roots_up_to_200(self):
        assert resonance_quartic_scan(200) == []

    def test_scan_validates_bound(self):
        with pytest.raises(DomainError):
            resonance_quartic_scan(1)

    @pytest.mark.slow
    def test_no_integer_roots_up_to_5000(self):
        assert resonance_quartic_scan(5000) == []


class TestTable:
    @pytest.mark.parametrize("m,n,P,ordering,low,high", [
        (2, 1, 0.0, Ordering.P_LE_N2_LT_M2, "S", "S"),
        (2, 1, 3.0, Ordering.N2_LT_P_LE_M2, "I", "S"),
        (2, 1, 6.0, Ordering.N2_LT_M2_LT_P, "I", "S"),
        (1, 2, 0.0, Ordering.P_LT_M2_LT_N2, "S", "S"),
        (1, 2, 1.0, Ordering.P_EQ_M2_LT_N2, "?", "S"),
        (1, 2, 3.0, Ordering.M2_LT_P_LE_N2, "S", "S"),
        (1, 2, 6.0, Ordering.M2_LT_N2_LT_P, "S", "S"),
    ])
    def test_rows_and_gamma_resolution(self, m, n, P, ordering, low, high):
        report = table_regime(m, n, P)
        assert report.ordering is ordering
        assert report.low_energy.value == low
        # gamma = 4 for (1, 2) sits inside a stable interval, so the I/S
        # cells all resolve to S
        assert report.high_energy_resolved == high

    def test_unresolved_cell_is_gamma_dependent(self):
        report = table_regime(1, 2, 0.0)
        assert report.high_energy is Prediction.DEPENDS_ON_GAMMA

    def test_mechanisms_present(self):
        report = table_regime(2, 1, 3.0)
        assert "negative-coefficient" in report.mechanisms

    def test_unstable_ratio_resolves_to_instability(self):
        # gamma = 2.25 lies in the first unstable interval
        report = table_regime(2, 3, 0.0)
        assert report.high_energy_resolved == "I"

    def test_boundary_gamma_resolves_to_conjecture(self):
        report = table_regime(1, 6, 0.0)  # gamma = 36, interval endpoint
        assert report.high_energy_resolved.startswith("conjecture:")

    def test_json_round_trip(self):
        # every field survives to_dict and JSON: rebuilding the report from
        # the parsed dict gives the report back
        for args in ((1, 2, 3.0), (2, 1, 3.0)):
            report = table_regime(*args)
            d = json.loads(json.dumps(report.to_dict()))
            assert set(d) == {f.name for f in dataclasses.fields(RegimeReport)}
            gc = d["gamma_class"]
            clone = RegimeReport(
                m=d["m"], n=d["n"], P=d["P"],
                ordering=Ordering(d["ordering"]),
                low_energy=Prediction(d["low_energy"]),
                high_energy=Prediction(d["high_energy"]),
                high_energy_resolved=d["high_energy_resolved"],
                gamma_class=FrequencyRatioClass(
                    gamma=gc["gamma"],
                    membership=GammaMembership(gc["membership"]),
                    k_index=gc["k_index"],
                ),
                mechanisms=tuple(d["mechanisms"]),
            )
            assert clone == report


class TestLimitDichotomy:
    @pytest.mark.parametrize("gamma,expected", [
        (2.25, Verdict.UNSTABLE),
        (4.0, Verdict.STABLE),
        (8.0, Verdict.UNSTABLE),
        (12.0, Verdict.STABLE),
    ])
    def test_interior_points(self, gamma, expected):
        assert cazenave_limit_classify(gamma).verdict is expected

    def test_agrees_with_membership(self):
        for gamma in (1.5, 2.25, 4.0, 5.0, 5.44, 8.0, 12.0):
            verdict = cazenave_limit_classify(gamma).verdict
            member = classify_gamma_value(gamma).membership
            if member is GammaMembership.UNSTABLE_INTERVAL:
                assert verdict is Verdict.UNSTABLE, gamma
            elif member is GammaMembership.STABLE_INTERVAL:
                assert verdict is Verdict.STABLE, gamma

    def test_rejects_bad_gamma(self):
        with pytest.raises(DomainError):
            cazenave_limit_classify(0.0)
        with pytest.raises(DomainError):
            cazenave_limit_classify(math.inf)

    @pytest.mark.parametrize("gamma", [1.5, 2.25, 4.0, 8.0, 12.0, 49.0 / 9.0])
    def test_matches_the_full_arch(self, gamma):
        # oracle: the search runs to the arch's end, the zero of u, and the
        # coupled system over the whole arch, with no unfolding
        theta = find_zero_crossing(_limit_rhs_u, [0.0, 1.0], component=0,
                                   direction="falling", t_max=10.0,
                                   config=_LIMIT_CONFIG)

        def coupled(t, y):
            a = gamma * y[0] * y[0]
            return np.array([y[1], -y[0] ** 3, y[3], -a * y[2], y[5], -a * y[4]])

        y = integrate(coupled, [0.0, 1.0, 1.0, 0.0, 0.0, 1.0], (0.0, theta),
                      _LIMIT_CONFIG).final_state
        full = -np.array([[y[2], y[4]], [y[3], y[5]]])
        limit = cazenave_limit_classify(gamma)
        assert_allclose(limit.matrix, full, rtol=0.0, atol=1e-11)
        assert limit.verdict is classify_matrix(full).verdict

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (1, 3), (3, 7), (2, 1)])
    def test_hill_trace_tends_to_limit_trace(self, m, n):
        # The limit matrix is minus the fundamental matrix over one arch, so
        # the Hill trace at large energy approaches minus the limit trace.
        # The measured gaps at E = 1e12 are 3e-5 or less, 9e-5 for (1, 3)
        # and 3.2e-4 for (3, 7); they grow 10x at E = 1e10.
        hill = classify_stability(m, n, 0.0, 1e12).monodromy.trace
        limit = cazenave_limit_classify(n * n / (m * m)).trace
        assert hill == pytest.approx(-limit, abs=1e-3)
