"""Linearized stability of one mode against another: monodromy and criteria."""

import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate as scipy_integrate

import beammodes.hill
from beammodes import ModeParams, classify_stability
from beammodes.errors import DomainError, NumericalQualityError
from beammodes.hill import (Verdict, build_hill, classify_matrix, criteria_report,
                            li_zhang_criterion, monodromy,
                            negative_coefficient_criterion, zhukovskii_criterion)
from beammodes.integrate import IntegratorConfig, integrate
from beammodes.special import sigma_constant

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


class TestProblemSetup:
    def test_coefficient_form(self):
        prob = build_hill(2, 1, 3.0, 1.0)
        # a(theta^2) = n^2 (n^2 - P) + m^2 n^2 theta^2
        assert prob.coefficient(0.0) == pytest.approx(1.0 * (1.0 - 3.0))
        assert prob.coefficient(1.0) == pytest.approx(-2.0 + 4.0)

    def test_coeff_range_spans_orbit(self):
        prob = build_hill(2, 1, 3.0, 1.0)
        amp_sq = prob.orbit.sq_hi
        assert prob.coeff_max == pytest.approx(prob.coefficient(amp_sq))
        assert prob.coeff_min == pytest.approx(prob.coefficient(prob.orbit.sq_min))

    def test_sign_changing_orbit_halves_coefficient_period(self):
        prob = build_hill(2, 1, 0.0, 1.0)
        assert prob.coeff_period == pytest.approx(prob.orbit.period / 2)

    def test_well_orbit_keeps_full_period(self):
        prob = build_hill(1, 2, 2.0, -0.2)
        assert prob.coeff_period == pytest.approx(prob.orbit.period)

    def test_same_mode_rejected(self):
        with pytest.raises(DomainError):
            build_hill(2, 2, 0.0, 1.0)

    def test_inadmissible_energy_rejected(self):
        with pytest.raises(DomainError):
            build_hill(1, 2, 0.0, -1.0)

    def test_exact_bottom_uses_constant_orbit(self):
        params = ModeParams(k=1, P=2.0)
        prob = build_hill(1, 2, 2.0, params.floor_energy)
        assert prob.orbit.sq_lo == prob.orbit.sq_hi
        assert prob.coeff_min == prob.coeff_max


class TestMonodromy:
    def test_constant_coefficient_trace(self):
        """At the well bottom the coefficient is a constant a0, so the
        period map is a rotation: trace = 2 cos(sqrt(a0) tau)."""
        params = ModeParams(k=1, P=2.0)
        prob = build_hill(1, 2, 2.0, params.floor_energy)
        a0 = prob.coeff_max
        result = monodromy(prob, config=TIGHT)
        assert result.trace == pytest.approx(
            2.0 * math.cos(math.sqrt(a0) * prob.coeff_period), abs=1e-9)

    @pytest.mark.parametrize("m,n,P,E", [
        (1, 2, 0.0, 40.0), (2, 1, 3.0, 1.0), (1, 2, 7.0, -6.0),
        (1, 3, 2.0, -0.2), (2, 3, 1.0, 10.0),
    ])
    def test_det_and_multiplier_product(self, m, n, P, E):
        result = monodromy(build_hill(m, n, P, E))
        assert abs(result.det - 1.0) < 1e-8
        assert abs(np.prod(result.multipliers) - 1.0) < 1e-8

    def test_symmetric_orbit_gives_equal_diagonal(self):
        # starting at a turning point makes the coefficient even in time
        for m, n, P, E in [(1, 2, 0.0, 40.0), (2, 1, 3.0, 1.0)]:
            M = monodromy(build_hill(m, n, P, E)).matrix
            assert abs(M[0, 0] - M[1, 1]) < 1e-7

    def test_unstable_multipliers_are_reciprocal_real(self):
        result = monodromy(build_hill(1, 2, 0.0, 40.0))
        assert result.verdict is Verdict.UNSTABLE
        mults = sorted(abs(mu) for mu in result.multipliers)
        assert mults[0] < 1.0 < mults[1]
        assert mults[0] * mults[1] == pytest.approx(1.0, abs=1e-8)

    def test_to_dict_is_json_ready(self):
        import json
        d = monodromy(build_hill(2, 1, 0.0, 1.0)).to_dict()
        json.dumps(d)
        assert d["verdict"] == "stable"

    def test_to_dict_leaves_out_coefficient_integrals(self):
        result = monodromy(build_hill(2, 1, 0.0, 1.0))
        assert result.coefficient_integrals is not None
        assert list(result.to_dict()) == ["matrix", "det", "trace",
                                          "multipliers", "verdict"]


class TestClassifyMatrix:
    def test_rotation_is_stable(self):
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert classify_matrix(M).verdict is Verdict.STABLE

    def test_hyperbolic_is_unstable(self):
        M = np.array([[2.5, 0.0], [0.0, 0.4]])
        assert classify_matrix(M).verdict is Verdict.UNSTABLE

    def test_parabolic_is_marginal(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert classify_matrix(M).verdict is Verdict.MARGINAL
        M = np.array([[-1.0, 0.0], [0.0, -1.0]])
        assert classify_matrix(M).verdict is Verdict.MARGINAL

    def test_margin_width_is_respected(self):
        # lam + 1/lam = 2 + eps^2 + O(eps^3): pick eps so the excess is 2.5e-7
        M = np.array([[1.0 + 5e-4, 0.0], [0.0, 1.0 / (1.0 + 5e-4)]])
        assert classify_matrix(M, tol_margin=1e-6).verdict is Verdict.MARGINAL
        assert classify_matrix(M, tol_margin=1e-9).verdict is Verdict.UNSTABLE

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -1.0, 2.0])
    def test_margin_outside_band_rejected(self, margin):
        # a NaN or huge margin would make every verdict Marginal, a
        # negative one would let the Stable and Unstable bands overlap
        M = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(DomainError):
            classify_matrix(M, tol_margin=margin)

    def test_zero_margin_allowed(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert classify_matrix(M, tol_margin=0.0).verdict is Verdict.MARGINAL

    def test_bad_determinant_rejected(self):
        M = np.array([[1.1, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericalQualityError):
            classify_matrix(M)

    @pytest.mark.parametrize("M", [
        np.full((2, 2), math.nan),
        np.full((2, 2), math.inf),                  # det is NaN
        np.array([[math.inf, 0.0], [0.0, 1.0]]),    # det is inf
    ])
    def test_non_finite_matrix_rejected(self, M):
        with pytest.raises(NumericalQualityError):
            classify_matrix(M)

    def test_determinant_gate_scales_with_entries(self):
        # the tolerance scales with max|M_ij|^2 = 1e8, so a 1e-3 drift passes
        M = np.array([[1e4, 0.0], [0.0, 1.001e-4]])
        assert classify_matrix(M).verdict is Verdict.UNSTABLE


class TestCriteria:
    def test_zhukovskii_near_well_bottom(self):
        params = ModeParams(k=1, P=2.0)
        prob = build_hill(1, 2, 2.0, params.floor_energy * (1 - 1e-3))
        result = zhukovskii_criterion(prob)
        assert result.applies
        assert result.ell == 4

    def test_zhukovskii_needs_nonnegative_coefficient(self):
        prob = build_hill(2, 1, 3.0, 1.0)  # coeff_max < 0 here
        assert not zhukovskii_criterion(prob).applies

    def test_li_zhang_small_coupling(self):
        prob = build_hill(2, 1, 0.0, 1e8)
        result = li_zhang_criterion(prob, monodromy(prob))
        assert result.applies
        assert result.rhs == pytest.approx((64.0 / 3.0) * sigma_constant() ** 4,
                                           rel=1e-12)
        assert result.lhs < result.rhs

    def test_li_zhang_large_coupling_fails(self):
        prob = build_hill(1, 2, 0.0, 1.0)
        result = li_zhang_criterion(prob, monodromy(prob))
        assert not result.applies
        assert result.lhs > result.rhs

    def test_negative_coefficient_window(self):
        assert negative_coefficient_criterion(build_hill(2, 1, 3.0, 1.0)).applies
        assert not negative_coefficient_criterion(build_hill(2, 1, 3.0, 3.0)).applies

    def test_instability_threshold_closed_form(self):
        # E1 = (P - n^2)(2 m^2 - n^2 - P) / 4: the coefficient max changes
        # sign exactly there
        m, n, P = 2, 1, 3.0
        E1 = 0.25 * (P - n * n) * (2 * m * m - n * n - P)
        prob_below = build_hill(m, n, P, E1 * (1 - 1e-9))
        prob_above = build_hill(m, n, P, E1 * (1 + 1e-9))
        assert prob_below.coeff_max < 0.0 < prob_above.coeff_max

    def test_report_collects_all_three(self):
        prob = build_hill(2, 1, 3.0, 1.0)
        report = criteria_report(prob, monodromy(prob))
        d = report.to_dict()
        assert set(d) >= {"zhukovskii", "li_zhang", "negative_coefficient"}


class TestClassifyStability:
    def test_stable_case(self):
        report = classify_stability(2, 1, 0.0, 1.0)
        assert report.verdict is Verdict.STABLE

    def test_negative_coefficient_forces_instability(self):
        # a(t) <= 0 pumps the perturbation monotonically
        report = classify_stability(2, 1, 3.0, 1.0)
        assert report.verdict is Verdict.UNSTABLE
        assert report.criteria.negative_coefficient.applies

    def test_unstable_case(self):
        report = classify_stability(1, 2, 0.0, 40.0)
        assert report.verdict is Verdict.UNSTABLE
        assert report.monodromy.trace == pytest.approx(2.0061, abs=2e-3)

    def test_agreement_battery(self):
        """Applicable criteria never contradict the monodromy verdict."""
        cases = [(2, 1, 0.0, 0.5), (2, 1, 3.0, 0.3), (2, 1, 6.0, -0.9),
                 (1, 2, 0.0, 5.0), (1, 2, 3.0, -0.7), (1, 2, 6.0, -6.0),
                 (3, 2, 0.0, 12.0), (2, 3, 5.0, 2.0)]
        for m, n, P, E in cases:
            report = classify_stability(m, n, P, E)  # raises on contradiction
            crits = report.criteria
            if crits.zhukovskii.applies or crits.li_zhang.applies:
                assert report.verdict is not Verdict.UNSTABLE
            if crits.negative_coefficient.applies:
                assert report.verdict is not Verdict.STABLE

    def test_near_bottom_margin_interplay(self):
        """1e-4 away from the elliptic bottom the trace sits ~6e-9 inside
        |trace| = 2: the default margin calls it marginal, a 1e-9 margin
        with a tight integrator resolves it as stable."""
        params = ModeParams(k=1, P=7.0)
        E = params.floor_energy * (1 - 1e-4)
        default = classify_stability(1, 2, 7.0, E)
        assert default.verdict is Verdict.MARGINAL
        tight = classify_stability(1, 2, 7.0, E, config=TIGHT, tol_margin=1e-9)
        assert tight.verdict is Verdict.STABLE

    def test_robust_near_bottom_case(self):
        params = ModeParams(k=1, P=3.0)
        E = params.floor_energy * (1 - 1e-4)
        report = classify_stability(1, 2, 3.0, E)
        assert report.verdict is Verdict.STABLE
        assert report.monodromy.trace == pytest.approx(-0.2249, abs=2e-3)

    def test_strongly_unstable_well_row_classifies(self):
        """(1, 5) at P = 80: thirty energies between the floor and 0.  The
        seven nearest the separatrix grow by 1e5 to 1e10 per period, where
        det is a difference of products that large; each is Unstable."""
        P = 80.0
        floor = ModeParams(k=1, P=P).floor_energy
        fractions = [1.0 - (i + 0.5) / 30 for i in range(30)]
        reports = [classify_stability(1, 5, P, floor * f) for f in fractions]
        deep = [r for f, r in zip(fractions, reports) if f < 0.25]
        assert len(deep) == 7
        assert all(r.verdict is Verdict.UNSTABLE for r in deep)
        assert all(abs(r.monodromy.trace) > 1e5 for r in deep)

    def test_report_to_dict(self):
        import json
        json.dumps(classify_stability(2, 1, 3.0, 1.0).to_dict())


def reference_li_zhang_lhs(problem) -> float:
    """T^3 int_0^T (a^+)^2 by scipy quad along the closed-form orbit of
    DuffingOrbit.states, with T the period of theta^2."""
    orbit = problem.orbit
    T = orbit.coefficient_period

    def integrand(t):
        theta = orbit.states([t])[0, 0]
        return max(problem.coefficient(theta * theta), 0.0) ** 2

    value, _ = scipy_integrate.quad(integrand, 0.0, T, epsabs=0.0,
                                    epsrel=1e-13, limit=500)
    return T**3 * value


class TestOnePass:
    """The criteria read their integrals off the monodromy integration."""

    @pytest.mark.parametrize("m,n,P,E", [
        (2, 1, 0.0, 1.0), (1, 2, 0.0, 40.0), (2, 1, 3.0, 1.0),
        (1, 2, 2.0, -0.2), (1, 2, 2.0, -0.25),
    ])
    def test_one_integration_per_cell(self, monkeypatch, m, n, P, E):
        calls = []
        original = beammodes.hill.integrate

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(beammodes.hill, "integrate", counted)
        report = classify_stability(m, n, P, E)
        assert len(calls) == 1
        assert report.monodromy.coefficient_integrals is not None

    @pytest.mark.parametrize("m,n,P,E", [
        (2, 1, 1.0397, 0.1266), (1, 2, 5.2319, 459.7), (1, 2, 5.6942, -0.5097),
    ])
    def test_li_zhang_lhs_matches_quadrature(self, m, n, P, E):
        # a(t) changes sign along each of these orbits, so (a^+)^2 has a kink
        prob = build_hill(m, n, P, E)
        assert prob.coeff_min < 0.0 < prob.coeff_max
        lhs = li_zhang_criterion(prob, monodromy(prob)).lhs
        assert lhs == pytest.approx(reference_li_zhang_lhs(prob), rel=1e-6)

    @pytest.mark.parametrize("m,n,P", [(1, 2, 2.0), (2, 1, 6.0)])
    def test_well_bottom_integrals_are_exact(self, m, n, P):
        prob = build_hill(m, n, P, ModeParams(k=m, P=P).floor_energy)
        a, T = prob.coeff_max, prob.coeff_period
        mean, square = monodromy(prob).coefficient_integrals
        assert mean == pytest.approx(a * T, rel=1e-12)
        assert square == pytest.approx(max(a, 0.0) ** 2 * T, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m,n,P,E", [
        (2, 1, 0.0, 4.0), (1, 2, 3.0, -0.5), (1, 3, 0.0, 9.0),
    ])
    def test_integrals_obey_cauchy_schwarz(self, m, n, P, E):
        # over the coefficient period T: (int a)^2 <= (int a^+)^2 <= T int (a^+)^2
        prob = build_hill(m, n, P, E)
        mean, square = monodromy(prob, TIGHT).coefficient_integrals
        assert mean > 0.0
        assert square >= mean**2 / prob.coeff_period * (1 - 1e-10)

    def test_bare_matrix_has_no_integrals(self):
        result = classify_matrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert result.coefficient_integrals is None
        with pytest.raises(DomainError):
            li_zhang_criterion(build_hill(2, 1, 0.0, 1.0), result)


def full_period_monodromy(problem, config=IntegratorConfig()):
    """The full-period oracle: one DOP853 pass of the coupled system over
    (0, T), read without any unfolding, integrals attached."""
    theta0, dtheta0 = problem.orbit.initial_state
    y0 = np.array([theta0, dtheta0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    y = integrate(beammodes.hill._coupled_rhs(problem), y0,
                  (0.0, problem.coeff_period), config).final_state
    result = classify_matrix(np.array([[y[2], y[4]], [y[3], y[5]]]))
    return replace(result, coefficient_integrals=(float(y[6]), float(y[7])))


REFERENCE = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)
_FLOOR_2 = ModeParams(k=1, P=2.0).floor_energy
_FLOOR_80 = ModeParams(k=1, P=80.0).floor_energy
HALF_PERIOD_BATTERY = {
    "sign-changing": (2, 1, 0.0, 1.0),
    "sign-changing unstable": (1, 2, 0.0, 40.0),
    "well near floor": (1, 2, 2.0, _FLOOR_2 * (1 - 1e-3)),
    "well near separatrix": (1, 2, 2.0, -1e-6),
    "bottom": (1, 2, 2.0, _FLOOR_2),
    # the deepest cell of the (1, 5), P = 80 row: |trace| about 8e9
    "huge growth": (1, 5, 80.0, _FLOOR_80 * (0.5 / 30)),
    # |trace| - 2 is about 1e-5, ten margins outside the marginal band
    "near |trace| = 2": (1, 2, 6.0, -5.2855),
}


class TestHalfPeriod:
    """The monodromy integrates half a coefficient period and unfolds the
    rest by time reversal; the full-period pass is its oracle."""

    @pytest.mark.parametrize("case", list(HALF_PERIOD_BATTERY))
    def test_matches_full_period(self, case):
        problem = build_hill(*HALF_PERIOD_BATTERY[case])
        half = monodromy(problem)
        full = full_period_monodromy(problem)
        assert half.verdict is full.verdict
        assert abs(half.trace - full.trace) <= 1e-7 * max(1.0, abs(full.trace))
        # the unfolding gives M itself, not a conjugate of it
        scale = max(1.0, float(np.max(np.abs(full.matrix))))
        assert_allclose(half.matrix, full.matrix, rtol=0.0, atol=1e-7 * scale)
        # The integrals are held against the tight full pass: at the default
        # tolerance the full pass is the less accurate of the two on the kink
        # of (a^+)^2 (1.3e-8 off on the huge-growth cell, the half pass 1e-13).
        reference = full_period_monodromy(problem, REFERENCE)
        for value, want in zip(half.coefficient_integrals,
                               reference.coefficient_integrals):
            assert value == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("case", list(HALF_PERIOD_BATTERY))
    def test_converges_with_the_tolerance(self, case):
        # at rel_tol 1e-13 the two passes agree at least as well as at the
        # default tolerance (up to rounding of the trace itself)
        problem = build_hill(*HALF_PERIOD_BATTERY[case])
        gaps = []
        for config in (IntegratorConfig(), REFERENCE):
            half = monodromy(problem, config)
            full = full_period_monodromy(problem, config)
            gaps.append(abs(half.trace - full.trace) / max(1.0, abs(full.trace)))
        assert gaps[1] <= gaps[0] + 1e-14

    def test_determinant_is_the_square_of_the_half_period_one(self):
        # nothing is divided by det Phi(T/2), so det M = (det Phi(T/2))^2
        problem = build_hill(1, 2, 0.0, 40.0)
        theta0, dtheta0 = problem.orbit.initial_state
        y = integrate(beammodes.hill._coupled_rhs(problem),
                      [theta0, dtheta0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                      (0.0, 0.5 * problem.coeff_period)).final_state
        det_half = y[2] * y[5] - y[4] * y[3]
        assert monodromy(problem).det == pytest.approx(det_half**2, rel=1e-14)
