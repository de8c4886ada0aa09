"""Frequency-ratio intervals, resonance diagnostics, and the regime table."""

import dataclasses
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

import beammodes
from beammodes import classify_stability, regime, table_regime
from beammodes.duffing import ModeParams, duffing_rhs, orbit_from_energy
from beammodes.errors import DomainError
from beammodes.hill import HillProblem, MonodromyResult, Verdict, classify_matrix, monodromy
from beammodes.integrate import IntegratorConfig, find_zero_crossing, integrate
from beammodes.regime import (
    _LIMIT_CONFIG,
    MAX_QUARTIC_N,
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
from beammodes.special import sigma_constant


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

    def test_an_underflowing_gamma_is_refused(self):
        # n^2 / m^2 = 1e-400 rounds to the float 0, which has no verdict;
        # 1e-320 is subnormal but positive, and stays
        with pytest.raises(DomainError, match=r"^gamma = n\^2 / m\^2 must be a positive "
                                              r"finite float"):
            classify_gamma(10**200, 1)
        assert classify_gamma(10**160, 1).gamma == 1e-320

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

    @pytest.mark.parametrize("n_max", [2.5, MAX_QUARTIC_N + 1, 10**8])
    def test_scan_refuses_what_it_cannot_serve(self, n_max):
        with pytest.raises(DomainError, match="n_max"):
            resonance_quartic_scan(n_max)

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
    # 15 gammas geometric in [0.3, 100], 40 in [0.5, 30], the interval
    # endpoints 1 to 36, and gate 8's seven
    ORACLE_GAMMAS = [*np.geomspace(0.3, 100.0, 15).tolist(),
                     *np.linspace(0.5, 30.0, 40).tolist(),
                     1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0, 36.0,
                     1.5, 2.25, 4.0, 5.0, 5.44, 8.0, 12.0]

    @pytest.mark.parametrize("gamma,expected", [
        (2.25, Verdict.UNSTABLE),
        (4.0, Verdict.STABLE),
        (8.0, Verdict.UNSTABLE),
        (12.0, Verdict.STABLE),
    ])
    def test_interior_points(self, gamma, expected):
        limit, = cazenave_limit_classify([gamma])
        assert limit.verdict is expected

    def test_agrees_with_membership(self):
        gammas = (1.5, 2.25, 4.0, 5.0, 5.44, 8.0, 12.0)
        for gamma, limit in zip(gammas, cazenave_limit_classify(gammas)):
            verdict = limit.verdict
            member = classify_gamma_value(gamma).membership
            if member is GammaMembership.UNSTABLE_INTERVAL:
                assert verdict is Verdict.UNSTABLE, gamma
            elif member is GammaMembership.STABLE_INTERVAL:
                assert verdict is Verdict.STABLE, gamma

    def test_rejects_bad_gamma(self):
        zero, inf = cazenave_limit_classify([0.0, math.inf])
        assert isinstance(zero, DomainError)
        assert isinstance(inf, DomainError)

    def test_a_gamma_past_the_bound_fails_alone(self):
        low, high, same = cazenave_limit_classify([2.25, regime.MAX_LIMIT_GAMMA * 10, 4.0])
        assert isinstance(high, DomainError) and "at most" in str(high)
        alone = cazenave_limit_classify([2.25]) + cazenave_limit_classify([4.0])
        assert [low.matrix.tobytes(), same.matrix.tobytes()] == \
            [r.matrix.tobytes() for r in alone]

    def test_the_bound_itself_is_served(self, monkeypatch):
        monkeypatch.setattr(regime, "MAX_LIMIT_GAMMA", 4.0)
        at, past, huge = cazenave_limit_classify([4.0, math.nextafter(4.0, math.inf), 1e200])
        assert at.verdict is Verdict.STABLE
        assert isinstance(past, DomainError) and isinstance(huge, DomainError)

    @pytest.mark.parametrize("gamma", [1.5, 2.25, 4.0, 8.0, 12.0, 49.0 / 9.0])
    def test_matches_the_full_arch(self, gamma):
        # oracle: the search runs to the arch's end, the zero of u, and the
        # coupled system over the whole arch, with no unfolding
        def cubic(t, y):
            return np.array([y[1], -y[0] ** 3])

        theta = find_zero_crossing(cubic, [0.0, 1.0], component=0,
                                   direction="falling", t_max=10.0,
                                   config=_LIMIT_CONFIG)

        def coupled(t, y):
            a = gamma * y[0] * y[0]
            return np.array([y[1], -y[0] ** 3, y[3], -a * y[2], y[5], -a * y[4]])

        y = integrate(coupled, [0.0, 1.0, 1.0, 0.0, 0.0, 1.0], (0.0, theta),
                      _LIMIT_CONFIG).final_state
        full = -np.array([[y[2], y[4]], [y[3], y[5]]])
        limit, = cazenave_limit_classify([gamma])
        assert_allclose(limit.matrix, full, rtol=0.0, atol=1e-11)
        assert limit.verdict is classify_matrix(full).verdict

    def test_the_peak_is_the_closed_form_quarter_period(self):
        # u'' + u^3 = 0 from (0, 1) has energy 1/2 and amplitude 2^(1/4), so
        # its peak comes at 2^(1/4) int_0^1 dx / sqrt(1 - x^4) = 2^(1/4) sigma
        peak = find_zero_crossing(duffing_rhs(ModeParams(k=1, P=1.0)), (0.0, 1.0), component=1,
                                  direction="falling", t_max=10.0, config=_LIMIT_CONFIG)
        assert peak == pytest.approx(2 ** 0.25 * sigma_constant(), rel=1e-11, abs=0)

    def test_the_limit_cell_is_a_hill_row(self):
        # u'' + u^3 = 0 is mode 1 at load 1.  Its orbit at energy 1/2 starts
        # at the turning point of the arch that the limit cell integrates,
        # and gamma u^2 is even about the arch's zero and its peak, so the
        # Hill row (orbit, 0, gamma) has a monodromy conjugate to the arch's
        # fundamental matrix, which the limit cell negates.
        gammas = self.ORACLE_GAMMAS
        orbit = orbit_from_energy(ModeParams(k=1, P=1.0), 0.5)
        config = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        start = time.perf_counter()
        rows = [monodromy(HillProblem(orbit, 0.0, gamma), config) for gamma in gammas]
        assert time.perf_counter() - start < 1.0
        for gamma, row, limit in zip(gammas, rows, cazenave_limit_classify(gammas)):
            assert row.step_doubling is not None, gamma
            assert row.verdict is limit.verdict, gamma
            assert row.trace == pytest.approx(-limit.trace, rel=0.0, abs=1e-10), gamma

    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts of the limit cell's peak searches and half-period passes."""
        counts = {"search": 0, "pass": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(regime, "find_zero_crossing",
                            counting("search", regime.find_zero_crossing))
        monkeypatch.setattr(beammodes.hill, "_half_period_pass",
                            counting("pass", beammodes.hill._half_period_pass))
        return counts

    def test_a_batch_searches_for_the_peak_once(self, counted):
        gammas = [1.5, 2.25, 4.0, 8.0]
        assert all(isinstance(r, MonodromyResult) for r in cazenave_limit_classify(gammas))
        assert counted == {"search": 1, "pass": 4}
        # nothing outlives the call: the next batch searches again
        cazenave_limit_classify([12.0])
        assert counted == {"search": 2, "pass": 5}

    def test_a_batch_without_a_valid_gamma_makes_no_search(self, counted):
        results = cazenave_limit_classify([0.0, math.nan, math.inf])
        assert [type(r) for r in results] == [DomainError] * 3
        assert [str(r) for r in results] == [
            f"gamma must be positive and finite, got {g}" for g in ("0.0", "nan", "inf")]
        assert cazenave_limit_classify([]) == []
        assert counted == {"search": 0, "pass": 0}

    def test_a_bad_gamma_fails_alone(self, counted):
        good = [2.25, 4.0]
        alone = [result.to_dict() for result in cazenave_limit_classify(good)]
        bad, first, nan, second = cazenave_limit_classify([-1.0, 2.25, math.nan, 4.0])
        assert str(bad) == "gamma must be positive and finite, got -1.0"
        assert str(nan) == "gamma must be positive and finite, got nan"
        assert [first.to_dict(), second.to_dict()] == alone
        assert counted == {"search": 2, "pass": 4}

    def test_a_batch_equals_its_gammas_alone(self):
        batch = cazenave_limit_classify(self.ORACLE_GAMMAS)
        assert len(batch) == len(self.ORACLE_GAMMAS)
        for gamma, result in zip(self.ORACLE_GAMMAS, batch):
            alone, = cazenave_limit_classify([gamma])
            assert result.matrix.tobytes() == alone.matrix.tobytes(), gamma
            assert (result.trace, result.det) == (alone.trace, alone.det), gamma
            assert result.verdict is alone.verdict, gamma
            assert result.to_dict() == alone.to_dict(), gamma

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (1, 3), (3, 7), (2, 1)])
    def test_hill_trace_tends_to_limit_trace(self, m, n):
        # The limit matrix is minus the fundamental matrix over one arch, so
        # the Hill trace at large energy approaches minus the limit trace.
        # The measured gaps at E = 1e12 are 3e-5 or less, 9e-5 for (1, 3)
        # and 3.2e-4 for (3, 7); they grow 10x at E = 1e10.
        hill = classify_stability(m, n, 0.0, 1e12).monodromy.trace
        limit = cazenave_limit_classify([n * n / (m * m)])[0].trace
        assert hill == pytest.approx(-limit, abs=1e-3)
