"""Linearized stability of one mode against another: monodromy and criteria."""

import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate as scipy_integrate

import beammodes.hill
from beammodes import ModeParams, atlas, classify_stability
from beammodes.duffing import energy_from_initial_amplitude, orbit_from_energy
from beammodes.errors import DomainError, IntegrationError, NumericalQualityError
from beammodes.hill import (Verdict, build_hill, classify_batch, classify_matrix,
                            criteria_report, li_zhang_criterion, monodromy,
                            negative_coefficient_criterion, zhukovskii_criterion)
from beammodes.integrate import IntegratorConfig, integrate
from beammodes.regime import cazenave_limit_classify
from beammodes.special import sigma_constant

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, loaded from its path and left unchanged; it
    is in sys.modules while it runs, since its dataclasses look their
    module up there."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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

    def test_to_dict_nulls_tell_the_pass(self, monkeypatch):
        """The kernel sets step_doubling and the coefficient integrals, the
        DOP853 fallback the integrals alone, and a limit row neither."""
        keys = ["matrix", "det", "trace", "multipliers", "verdict",
                "coefficient_integrals", "step_doubling"]
        problem = build_hill(2, 1, 3.0, 1.0)
        limit = cazenave_limit_classify([2.25])[0].to_dict()
        kernel = monodromy(problem).to_dict()
        monkeypatch.setattr(beammodes.hill, "MAX_MAGNUS_STEPS", 16)
        fallback = monodromy(problem).to_dict()
        assert list(kernel) == list(fallback) == list(limit) == keys
        steps, delta = kernel["step_doubling"]
        assert isinstance(steps, int) and isinstance(delta, float)
        for d in (kernel, fallback):
            assert len(d["coefficient_integrals"]) == 2
            assert all(isinstance(v, float) for v in d["coefficient_integrals"])
        assert fallback["step_doubling"] is None
        assert limit["coefficient_integrals"] is None and limit["step_doubling"] is None


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
        # a cell the Magnus kernel converges on integrates nothing; with the
        # kernel's cap below its first pass, the cell falls back to exactly
        # one DOP853 pass
        calls = []
        original = beammodes.hill.integrate

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(beammodes.hill, "integrate", counted)
        report = classify_stability(m, n, P, E)
        assert calls == []
        assert report.monodromy.step_doubling is not None
        assert report.monodromy.coefficient_integrals is not None
        monkeypatch.setattr(beammodes.hill, "MAX_MAGNUS_STEPS", 16)
        report = classify_stability(m, n, P, E)
        assert len(calls) == 1
        assert report.monodromy.step_doubling is None
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
    rhs = beammodes.hill._coupled_rhs(problem.orbit.params, problem.linear_term,
                                      problem.coupling)
    y = integrate(rhs, y0, (0.0, problem.coeff_period), config).final_state
    result = classify_matrix(np.array([[y[2], y[4]], [y[3], y[5]]]))
    return replace(result, coefficient_integrals=(float(y[6]), float(y[7])))


def dop853_pass(problem, config=IntegratorConfig()):
    """The DOP853 half-period pass of the problem: (det Phi M, integrals)."""
    return beammodes.hill._half_period_pass(
        problem.orbit.params, problem.orbit.initial_state, problem.linear_term,
        problem.coupling, 0.5 * problem.coeff_period, config)


def relative_gap(value, want):
    return abs(value - want) / max(1.0, abs(want))


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


# the thirty cells of the (1, 5) row at P = 80, floor to separatrix
ROW_80 = [(1, 5, 80.0, _FLOOR_80 * (1.0 - (i + 0.5) / 30)) for i in range(30)]


def mpmath_well_coefficient(mp, m, n, P, E):
    """a(t) of the Hill problem (m, n, P, E) along the well orbit
    theta = A kp / dn(omega t) of mode m, and half its period, K / omega,
    in mpmath at its working precision.  The lower turning root is the
    product of the roots over the upper one, which does not cancel."""
    P, E = mp.mpf(P), mp.mpf(E)
    gap = P - m * m
    hi = (gap + mp.sqrt(gap * gap + 4 * E)) / m**2
    lo = -4 * E / (m**4 * hi)
    A, kp, omega = mp.sqrt(hi), mp.sqrt(lo / hi), m**2 * mp.sqrt(hi / 2)

    def a(t):
        theta = A * kp / mp.ellipfun("dn", omega * t, m=1 - kp**2)
        return n**2 * (n**2 - P) + m**2 * n**2 * theta**2

    return a, mp.ellipk(1 - kp**2) / omega


def mpmath_separatrix_trace(dps=30):
    """The monodromy trace of the "well near separatrix" cell, (1, 2) at
    P = 2, E = -1e-6, to dps digits: mpmath.odefun's Taylor integrator on
    both Hill columns over (0, T/2) on mpmath_well_coefficient, unfolded as
    hill._unfold does.  At dps = 30 it takes about two minutes;
    SEPARATRIX_TRACE is its output.  Run as
    python -c "import test_hill as t; print(t.mpmath_separatrix_trace())"
    from tests/ with src on PYTHONPATH."""
    import mpmath as mp
    with mp.workdps(dps):
        a, half = mpmath_well_coefficient(mp, 1, 2, 2.0, -1e-6)
        x1, dx1, x2, dx2 = mp.odefun(
            lambda t, y: [y[1], -a(t) * y[0], y[3], -a(t) * y[2]], 0, [1, 0, 0, 1])(half)
        return mp.nstr(2 * (x1 * dx2 + x2 * dx1), dps)


# mpmath_separatrix_trace() at 30 digits, for E the double nearest -1e-6;
# E = -10^-6 exactly gives 1.29079200105731928854934956621, 2e-16 lower.
# DOP853 at REFERENCE is 5.8e-13 off here, more than the 1e-13 resolution
# test_tighter_tolerance_is_no_less_accurate asks.
SEPARATRIX_TRACE = 1.29079200105731948407933418643


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
        rhs = beammodes.hill._coupled_rhs(problem.orbit.params, problem.linear_term,
                                          problem.coupling)
        y = integrate(rhs,
                      [theta0, dtheta0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                      (0.0, 0.5 * problem.coeff_period)).final_state
        det_half = y[2] * y[5] - y[4] * y[3]
        assert classify_matrix(dop853_pass(problem)[0]).det == pytest.approx(
            det_half**2, rel=1e-14)

    def test_an_overflowing_pass_is_an_integration_error(self):
        # the limit arch at coupling 1e200, past regime.MAX_LIMIT_GAMMA:
        # (coupling theta^2)^2 overflows a float ** early in the pass
        with pytest.raises(IntegrationError, match="overflow"):
            beammodes.hill._half_period_pass(ModeParams(k=1, P=1.0), (0.0, 1.0), 0.0,
                                             1e200, 0.5, IntegratorConfig())

    def test_both_cell_kinds_run_the_one_pass(self, monkeypatch):
        # a converged Hill cell runs the Magnus kernel alone; the large-energy
        # limit cell and a Hill cell past the kernel's cap integrate through
        # the half-period DOP853 pass
        class Reached(Exception):
            pass

        def reached(name):
            def sentinel(*args):
                raise Reached(name)
            return sentinel

        problem = build_hill(2, 1, 0.0, 1.0)
        monkeypatch.setattr(beammodes.hill, "_half_period_pass", reached("dop853"))
        monkeypatch.setattr(beammodes.hill, "_magnus_pass", reached("magnus"))
        for cell in (lambda: monodromy(problem),
                     lambda: classify_stability(2, 1, 0.0, 1.0)):
            with pytest.raises(Reached, match="magnus"):
                cell()
        with pytest.raises(Reached, match="dop853"):
            cazenave_limit_classify([2.25])
        monkeypatch.setattr(beammodes.hill, "MAX_MAGNUS_STEPS", 8)
        with pytest.raises(Reached, match="dop853"):
            monodromy(problem)


class TestMagnusKernel:
    """The Magnus kernel on the closed-form orbit against the DOP853 pass,
    its oracle."""

    @pytest.mark.parametrize("case", [case for case in HALF_PERIOD_BATTERY
                                      if case != "bottom"])
    def test_sixth_order(self, case):
        # each doubling of the step count cuts the trace error by about 64; a
        # wrong sign on one commutator term leaves it 4th order (about 16) or
        # lower.  Only step counts where every step takes the 6th-order
        # Omega count, and whose error is above 1e-12, clear of the reference
        # pass's own.  At the bottom a is constant and every pass is exact.
        problem = build_hill(*HALF_PERIOD_BATTERY[case])
        want = 2.0 * dop853_pass(problem, REFERENCE)[0][0, 0]
        errors = {}
        batch = beammodes.hill._Batch.of([problem])
        for steps in (2**k for k in range(2, 13)):
            (matrix,), (coefficient,) = beammodes.hill._magnus_pass(batch, steps)
            h = 0.5 * problem.coeff_period / steps
            error = relative_gap(2.0 * matrix[0, 0], want)
            if h * h * np.max(np.abs(coefficient)) <= 1.0 and error > 1e-12:
                errors[steps] = error
        ratios = [errors[steps] / errors[2 * steps] for steps in errors
                  if 2 * steps in errors]
        assert ratios and min(ratios) >= 40.0, errors

    def test_coefficient_is_the_orbit_states(self):
        """The kernel's a(t) and DuffingOrbit.states are two closed forms of
        one orbit: a(t) is linear + coupling theta theta with theta the first
        column of states, bit for bit, in a batch of one (0-d columns) and in
        a mixed batch (padded ladders).  theta theta, not theta**2, which
        rounds differently where the coupling (36, 9) is not a power of two."""
        mirrored = build_hill(1, 3, 2.0, 0.5 * _FLOOR_2)
        problems = [build_hill(2, 3, 0.0, 1.0), build_hill(1, 3, 2.0, 0.5 * _FLOOR_2),
                    build_hill(1, 3, 2.0, _FLOOR_2), build_hill(1, 3, 2.0, -1e-11),
                    replace(mirrored, orbit=orbit_from_energy(
                        mirrored.orbit.params, 0.5 * _FLOOR_2, sign=-1))]
        times = np.array([np.linspace(0.0, p.coeff_period, 41) for p in problems])
        want = []
        for problem, ts in zip(problems, times):
            theta = problem.orbit.states(ts)[:, 0]
            want.append(problem.linear_term + problem.coupling * theta * theta)
        want = np.array(want)
        for problem, ts, a in zip(problems, times, want):
            assert beammodes.hill._Batch.of([problem]).coefficient(ts).tobytes() == a.tobytes()
        assert beammodes.hill._Batch.of(problems).coefficient(times).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cell", list(HALF_PERIOD_BATTERY.values()) + ROW_80,
                             ids=list(HALF_PERIOD_BATTERY) + [f"row80-{i}" for i in range(30)])
    def test_matches_dop853(self, cell):
        problem = build_hill(*cell)
        kernel = monodromy(problem)
        matrix, integrals = dop853_pass(problem, REFERENCE)
        reference = classify_matrix(matrix)
        assert kernel.step_doubling is not None
        assert kernel.verdict is reference.verdict
        assert relative_gap(kernel.trace, reference.trace) <= 1e-9
        for value, want in zip(kernel.coefficient_integrals, integrals):
            assert value == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_no_benchmark_cell_falls_back(self, workloads):
        """Every cell of the benchmark's atlas rows (seeds 1-5, the F1 row
        included) and of gate 10's adaptive sweep converges in the kernel at
        the default tol: none takes the DOP853 fallback."""
        rows = [(*op.spec.modes[0], op.spec.P, E)
                for seed in range(1, 6)
                for op in workloads.atlas(beammodes, seed).ops if op.kind == "row"
                for E in op.spec.energy_grid]
        assert rows
        cells = rows + [(3, 7, 0.0, c.E)
                        for c in atlas.adaptive_amplitude_sweep(3, 7, 0.0, 50.0, 400)]
        for cell, report in zip(cells, classify_batch(cells)):
            assert not isinstance(report, Exception), (cell, report)
            assert report.monodromy.step_doubling is not None, cell

    @pytest.mark.parametrize("case", list(HALF_PERIOD_BATTERY))
    def test_tighter_tolerance_is_no_less_accurate(self, case):
        # up to the resolution of the reference (1e-13): the DOP853 pass at
        # rel_tol 1e-13, or the 30-digit trace near the separatrix
        problem = build_hill(*HALF_PERIOD_BATTERY[case])
        if case == "well near separatrix":
            want = SEPARATRIX_TRACE
        else:
            want = 2.0 * dop853_pass(problem, REFERENCE)[0][0, 0]
        loose, tight = (relative_gap(monodromy(problem, IntegratorConfig(rel_tol=tol)).trace,
                                     want) for tol in (1e-10, 1e-12))
        assert tight <= loose + 1e-13

    def test_step_doubling_stops_within_the_tolerance(self):
        problem = build_hill(*HALF_PERIOD_BATTERY["huge growth"])
        result = monodromy(problem)
        steps, delta = result.step_doubling
        assert steps & (steps - 1) == 0 and 32 <= steps <= beammodes.hill.MAX_MAGNUS_STEPS
        assert delta <= IntegratorConfig().rel_tol * abs(result.trace)
        assert list(result.to_dict()) == ["matrix", "det", "trace", "multipliers",
                                          "verdict", "coefficient_integrals",
                                          "step_doubling"]

    @pytest.mark.parametrize("how", ["cap", "non-finite trace"])
    def test_fallback_is_the_dop853_pass(self, monkeypatch, how):
        problem = build_hill(*HALF_PERIOD_BATTERY["sign-changing unstable"])
        passes = []
        if how == "cap":
            monkeypatch.setattr(beammodes.hill, "MAX_MAGNUS_STEPS", 16)
        else:
            def non_finite(batch, steps):
                passes.append(steps)
                return np.full((len(batch), 2, 2), math.inf), np.zeros((len(batch), 3, steps))

            monkeypatch.setattr(beammodes.hill, "_magnus_pass", non_finite)
        result = monodromy(problem, TIGHT)
        matrix, integrals = dop853_pass(problem, TIGHT)
        assert result.step_doubling is None
        assert result.matrix.tobytes() == matrix.tobytes()
        assert result.coefficient_integrals == integrals
        if how == "non-finite trace":
            # non-finite traces do not stop the doubling: only the cap does
            steps = 64
            assert passes[0] == steps and passes[-1] == beammodes.hill.MAX_MAGNUS_STEPS
            assert passes == [steps << i for i in range(len(passes))]

    def test_an_infinite_trace_never_converges(self, monkeypatch):
        # after a finite pass an infinite trace differs from it by inf, which
        # rel_tol |trace| = inf would admit; the cell falls back instead
        problem = build_hill(*HALF_PERIOD_BATTERY["sign-changing unstable"])
        monkeypatch.setattr(beammodes.hill, "_magnus_pass", lambda batch, steps: (
            np.array([np.eye(2) if steps == 64 else np.full((2, 2), math.inf)]),
            np.zeros((len(batch), 3, steps))))
        assert monodromy(problem).step_doubling is None

    def test_a_non_finite_first_pass_keeps_doubling(self):
        # (1, 200) at P = 40005, E = 1e-6: trace about -1.6e25, and the
        # 64-step pass is -inf (h^2 max|a| about 7e3); from 128 steps on the
        # passes are finite and the kernel converges at 65,536 steps, closer
        # to the DOP853 pass at rel_tol 1e-12 than that pass at the default
        # tolerance is (3.2e-8)
        problem = build_hill(1, 200, 40005.0, 1e-6)
        with np.errstate(over="ignore", invalid="ignore"):
            (first,), _ = beammodes.hill._magnus_pass(beammodes.hill._Batch.of([problem]), 64)
        assert not math.isfinite(first[0, 0])
        kernel = monodromy(problem)
        assert kernel.step_doubling is not None
        assert kernel.step_doubling[0] == 65536
        want = 2.0 * dop853_pass(problem, TIGHT)[0][0, 0]
        assert abs(kernel.trace - want) <= 1e-9 * abs(want)
        assert kernel.verdict is Verdict.UNSTABLE

    def test_coarse_passes_do_not_stop_the_doubling(self):
        # the passes at 32 and 64 steps agree here by accident, to within
        # rel_tol |trace| (3.9e-10), and would stop the doubling with the
        # trace 1.3e-10 off; the first pass has 64 steps
        problem = build_hill(3, 7, 49.0, 1.0494525233259504)
        kernel = monodromy(problem)
        want = 2.0 * dop853_pass(problem, REFERENCE)[0][0, 0]
        assert kernel.step_doubling is not None
        assert abs(kernel.trace - want) <= 1e-10 * max(1.0, abs(kernel.trace))

    def test_coarse_steps_keep_the_fourth_order_omega(self):
        # a(t) = n^4 + n^2 theta^2 is about 1.6e9 for n = 200: at 64 steps
        # h^2 a is about 5e5, where the 6th-order terms overflow the first
        # pass's exponentials and the cell would fall back to DOP853
        result = monodromy(build_hill(1, 200, 0.0, 1.0))
        assert result.step_doubling is not None
        assert result.step_doubling[0] <= 4096
        assert result.trace == pytest.approx(1.5619842287179009, rel=0.0, abs=1e-9)

    def test_kink_integral_matches_mpmath(self):
        # int_0^T (a^+)^2 where a changes sign, against mpmath.quad on the
        # positive side of the root t* of a: on this (1, 5) well orbit
        # theta^2 rises from the inner turning point, so a > 0 on (t*, T/2),
        # and the integral over T is twice that over (t*, T/2)
        mp = pytest.importorskip("mpmath")
        problem = build_hill(*ROW_80[15])
        assert problem.coeff_min < 0.0 < problem.coeff_max
        square = monodromy(problem).coefficient_integrals[1]
        with mp.workdps(30):
            a, half = mpmath_well_coefficient(mp, 1, 5, problem.orbit.params.P,
                                              problem.orbit.energy.value)
            assert a(0) < 0 < a(half)
            root = mp.findroot(a, (0, half), solver="anderson")
            want = 2 * mp.quad(lambda t: a(t) ** 2, [root, half])
        assert square == pytest.approx(float(want), rel=1e-11)


def cell_record(report):
    """Everything classify_stability reports for a cell, as comparable data:
    matrix bytes, trace, verdict, step_doubling, integrals and criteria, or
    the error's type and message."""
    if isinstance(report, Exception):
        return type(report).__name__, str(report)
    result = report.monodromy
    return (result.matrix.tobytes(), result.trace, result.verdict, report.verdict,
            result.step_doubling, result.coefficient_integrals, report.criteria.to_dict())


def per_cell_records(cells):
    records = []
    for cell in cells:
        try:
            records.append(cell_record(classify_stability(*cell)))
        except (DomainError, NumericalQualityError) as exc:
            records.append(cell_record(exc))
    return records


# gate 10's backbone: the 200 uniform amplitudes of
# adaptive_amplitude_sweep(3, 7, 0.0, 50.0, 400), as energies of mode 3
GATE_10_BACKBONE = [(3, 7, 0.0, energy_from_initial_amplitude(
    ModeParams(k=3, P=0.0), 50.0 if i == 199 else 0.25 + i * (50.0 - 0.25) / 199))
    for i in range(200)]


# a(t) changes sign on cn orbits (first three), on dn orbits (next two), and
# keeps its sign (last four)
KINK_CELLS = [(2, 1, 1.0397, 0.1266), (1, 2, 5.2319, 459.7), (2, 1, 3.0, 5.0),
              (1, 2, 5.6942, -0.5097), (1, 5, 80.0, -26.004166666666666),
              (2, 1, 0.0, 1.0), (1, 2, 2.0, -0.25), (1, 3, 5.0, -2.0), (2, 3, 6.5, 3.0)]


class TestBatch:
    """classify_batch runs one Magnus kernel over many cells; every cell's
    report equals classify_stability's, bit for bit."""

    @pytest.mark.parametrize("cells", [list(HALF_PERIOD_BATTERY.values()), ROW_80,
                                       GATE_10_BACKBONE, KINK_CELLS],
                             ids=["battery", "row80", "gate10-backbone", "kinks"])
    def test_equals_per_cell(self, cells):
        assert [cell_record(r) for r in classify_batch(cells)] == per_cell_records(cells)

    def test_kink_column(self):
        """The kink column is NaN where a(t) keeps its sign, and elsewhere the
        time_at_square of a's root, where a(t) is 0 on the orbit: in a batch
        of several, a one-row (0-d) batch and a batch's rows."""
        problems = [build_hill(*cell) for cell in KINK_CELLS]
        signed = [p.coeff_min < 0.0 < p.coeff_max for p in problems]
        assert [p.orbit.sign_changing for p in problems[:5]] == [True] * 3 + [False] * 2
        assert signed == [True] * 5 + [False] * 4
        batch = beammodes.hill._Batch.of(problems)
        assert batch.kink.shape == (len(problems), 1)
        np.testing.assert_array_equal(batch[[0, 5, 3]].kink, batch.kink[[0, 5, 3]])
        for problem, kinked, kink in zip(problems, signed, batch.kink[:, 0].tolist()):
            alone = beammodes.hill._Batch.of([problem]).kink
            assert alone.shape == ()
            if not kinked:
                assert math.isnan(kink) and math.isnan(alone)
                continue
            assert kink == alone == problem.orbit.time_at_square(
                -problem.linear_term / problem.coupling)
            assert 0.0 < kink < 0.5 * problem.coeff_period
            theta = problem.orbit.states([kink])[0, 0]
            scale = problem.coupling * problem.orbit.sq_hi
            assert abs(problem.coefficient(theta * theta)) <= 1e-12 * scale

    def test_mixed_batch_with_an_error_and_a_fallback(self, monkeypatch):
        # at a cap of 256 steps the near-separatrix cell (512 steps) falls
        # back to DOP853 while the others converge in the kernel; the cell
        # below the well floor raises DomainError in its own place
        monkeypatch.setattr(beammodes.hill, "MAX_MAGNUS_STEPS", 256)
        cells = [HALF_PERIOD_BATTERY["sign-changing"], (1, 2, 2.0, -1.0),
                 HALF_PERIOD_BATTERY["well near separatrix"], ROW_80[0],
                 HALF_PERIOD_BATTERY["bottom"]]
        batch = classify_batch(cells)
        assert [cell_record(r) for r in batch] == per_cell_records(cells)
        assert isinstance(batch[1], DomainError)
        assert batch[2].monodromy.step_doubling is None
        assert batch[0].monodromy.step_doubling is not None

    def test_an_overflowing_mode_number_fails_alone(self):
        # n^2 = 10^400 is past the float range: that cell gets its own
        # DomainError, and the cell beside it the report it gets alone
        good = HALF_PERIOD_BATTERY["sign-changing"]
        bad, report = classify_batch([(1, 10**200, 0.0, 1.0), good])
        assert isinstance(bad, DomainError) and "(P - n^2)^2" in str(bad)
        assert cell_record(report) == per_cell_records([good])[0]

    def test_cells_do_not_depend_on_their_batch(self, monkeypatch):
        # with a node budget of one 64-step cell per pass, every pass is cut
        # into single-cell chunks
        cells = list(HALF_PERIOD_BATTERY.values())
        whole = [cell_record(r) for r in classify_batch(cells)]
        monkeypatch.setattr(beammodes.hill, "_PASS_NODES", 3 * 64)
        assert [cell_record(r) for r in classify_batch(cells)] == whole
        assert [cell_record(r) for r in classify_batch(cells[::-1])] == whole[::-1]

    def test_passes_keep_to_the_node_budget(self, monkeypatch):
        # a 1000-cell sweep: no pass holds more Gauss nodes than one cell at
        # the step cap does, 3 MAX_MAGNUS_STEPS
        shapes = []
        original = beammodes.hill._magnus_pass

        def spy(batch, steps):
            shapes.append((len(batch), steps))
            return original(batch, steps)

        monkeypatch.setattr(beammodes.hill, "_magnus_pass", spy)
        energies = np.geomspace(0.1, 1e4, 1000).tolist()
        cells = atlas.sweep(atlas.SweepSpec(P=0.0, modes=[(3, 7)], energy_grid=energies))
        assert len(cells) == 1000 and all(cell.ok for cell in cells)
        assert max(n * 3 * steps for n, steps in shapes) <= 3 * beammodes.hill.MAX_MAGNUS_STEPS
        assert shapes[0] == (1000, 64)
        assert sum(n for n, steps in shapes if steps == 128) == 1000
        assert max(n for n, steps in shapes if steps == 128) == 512
