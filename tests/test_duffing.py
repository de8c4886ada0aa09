"""Single-mode oscillator: energies, turning points, periods, orbits."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from beammodes import ModeParams, period_of
from beammodes.duffing import (EnergyRegime, classify_energy, constant_orbit,
                               duffing_rhs, energy_from_initial_amplitude,
                               energy_of, homoclinic, orbit_from_energy,
                               turning_roots)
from beammodes.errors import DomainError
from beammodes.integrate import IntegratorConfig, find_zero_crossing, integrate
from beammodes.special import sigma_constant

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
# (k, P, E): no well, a well orbit, E > 0 over a hump, and a large energy
DOP853_CASES = [(1, 0.0, 2.0), (1, 2.0, -0.2), (2, 3.0, 5.0), (3, 0.0, 1e6)]


def phase_scale(orbit) -> np.ndarray:
    """(A, A w): the amplitude of theta and of theta', with w = 2 pi / T."""
    return orbit.amplitude * np.array([1.0, 2.0 * math.pi / orbit.period])


def ode_period(params: ModeParams, E: float) -> float:
    """Return-time oracle: twice the first velocity zero after leaving the
    turning point."""
    orbit = orbit_from_energy(params, E)
    guess = orbit.period
    t_half = find_zero_crossing(duffing_rhs(params), orbit.initial_state,
                                component=1, direction="any",
                                t_max=3.0 * guess, config=TIGHT)
    return 2.0 * t_half


class TestEnergyAndRoots:
    def test_energy_of_rest_state(self):
        level = energy_of(ModeParams(k=1, P=0.0), 0.0, 0.0)
        assert level.value == 0.0
        assert level.regime is EnergyRegime.TRIVIAL

    def test_energy_of_tiny_state_without_well_is_trivial(self):
        # |E| <= 1e-13 (1 + |E|) reads TRIVIAL, as in classify_energy
        level = energy_of(ModeParams(k=1, P=0.0), 1e-7, 0.0)
        assert 0.0 < level.value < 1e-13
        assert level.regime is EnergyRegime.TRIVIAL
        with pytest.raises(DomainError):
            orbit_from_energy(ModeParams(k=1, P=0.0), level.value)

    def test_energy_of_composition(self):
        level = energy_of(ModeParams(k=1, P=0.0), 1.0, 1.0)
        # beta^2/2 + k^2(k^2-P) alpha^2/2 + k^4 alpha^4/4
        assert level.value == pytest.approx(1.25, rel=1e-15)
        assert level.regime is EnergyRegime.POSITIVE

    def test_turning_roots_sign_changing(self):
        roots = turning_roots(ModeParams(k=1, P=0.0), 2.0)
        assert roots.hi == pytest.approx(2.0, rel=1e-14)
        assert roots.lo == pytest.approx(-4.0, rel=1e-14)

    def test_turning_roots_well(self):
        roots = turning_roots(ModeParams(k=1, P=2.0), -3.0 / 16.0)
        assert roots.hi == pytest.approx(1.5, rel=1e-14)
        assert roots.lo == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("k,P,E", [
        (1, 0.0, 1e-10), (2, 3.0, 1e-12), (1, 2.0, -1e-10),   # tiny roots
        (1, 2.0, -0.25), (2, 6.0, -1.0),                       # well bottom
        (1, 0.0, 0.0), (1, 2.0, 0.0), (1, 1.0, 0.0),           # E = 0
    ])
    def test_turning_roots_match_mpmath(self, k, P, E):
        """The small root is the product of the roots over the large one,
        so it keeps every digit as E -> 0 on either side of the well."""
        mpmath = pytest.importorskip("mpmath")
        roots = turning_roots(ModeParams(k=k, P=P), E)
        with mpmath.workdps(40):
            gap = mpmath.mpf(P) - k * k
            s = mpmath.sqrt(gap * gap + 4 * mpmath.mpf(E))
            want = (float((gap - s) / (k * k)), float((gap + s) / (k * k)))
        assert tuple(roots) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_well_orbit_modulus(self):
        orbit = orbit_from_energy(ModeParams(k=1, P=2.0), -3.0 / 16.0)
        assert orbit.modulus == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
        assert not orbit.sign_changing

    def test_floor_energy(self):
        assert ModeParams(k=1, P=0.0).floor_energy == 0.0
        assert ModeParams(k=1, P=2.0).floor_energy == pytest.approx(-0.25)
        assert ModeParams(k=2, P=6.0).floor_energy == pytest.approx(-1.0)

    def test_below_floor_rejected(self):
        with pytest.raises(DomainError):
            turning_roots(ModeParams(k=1, P=2.0), -0.3)
        with pytest.raises(DomainError):
            period_of(ModeParams(k=1, P=0.0), -0.1)

    @pytest.mark.parametrize("P", [0.0, 2.0])
    @pytest.mark.parametrize("E", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_rejected(self, P, E):
        params = ModeParams(k=1, P=P)
        for query in (classify_energy, period_of, turning_roots, orbit_from_energy):
            with pytest.raises(DomainError, match="energy must be finite"):
                query(params, E)

    @pytest.mark.parametrize("P", [1e160, -1e200])
    def test_overflowing_load_rejected(self, P):
        # (P - k^2)^2 overflows; well_bottom's float ** 2 would raise
        with pytest.raises(DomainError, match=r"^\(P - k\^2\)\^2 must be finite"):
            ModeParams(k=1, P=P)

    @pytest.mark.parametrize("k", [10**160, 10**400])
    def test_huge_mode_number_rejected(self, k):
        with pytest.raises(DomainError, match=r"^\(P - k\^2\)\^2 must be finite"):
            ModeParams(k=k, P=0.0)

    @pytest.mark.parametrize("P,E", [(0.0, 1e308), (2.0, 1e308), (0.0, -1e308)])
    def test_overflowing_energy_rejected(self, P, E):
        params = ModeParams(k=1, P=P)
        for query in (classify_energy, period_of, turning_roots, orbit_from_energy):
            with pytest.raises(DomainError, match=r"^4E \+ \(P - k\^2\)\^2 must be finite"):
                query(params, E)

    def test_largest_finite_discriminant_accepted(self):
        # 4E + (P - k^2)^2 = 1.6e308 and (P - k^2)^2 = 1.69e308 still serve
        assert 0.0 < period_of(ModeParams(k=1, P=0.0), 4e307) < math.inf
        params = ModeParams(k=1, P=1.3e154)
        assert params.well_bottom == -0.25 * (1.3e154 - 1.0) ** 2
        assert 0.0 < period_of(params, -1.0) < math.inf

    @pytest.mark.parametrize("P,E,regime", [
        (0.0, 1.0, EnergyRegime.POSITIVE),
        (0.0, 0.0, EnergyRegime.TRIVIAL),
        (2.0, 0.0, EnergyRegime.HOMOCLINIC),
        (2.0, -0.1, EnergyRegime.NEGATIVE_WELL),
        (2.0, -0.25, EnergyRegime.BOTTOM_OF_WELL),
        (2.0, 3.0, EnergyRegime.POSITIVE),
    ])
    def test_classification(self, P, E, regime):
        assert classify_energy(ModeParams(k=1, P=P), E) is regime

    def test_amplitude_energy_roundtrip(self):
        params = ModeParams(k=2, P=3.0)
        for E in (0.5, 4.0, 77.0):
            orbit = orbit_from_energy(params, E)
            back = energy_from_initial_amplitude(params, orbit.amplitude)
            assert back == pytest.approx(E, rel=1e-13)


class TestPeriod:
    @pytest.mark.parametrize("k,P,E", [
        (1, 0.0, 0.5), (1, 0.0, 100.0), (2, 3.0, 1.0),
        (1, 2.0, -0.2), (1, 2.0, -0.01), (3, 11.0, -0.4), (2, 6.0, 5.0),
    ])
    def test_matches_ode_return_time(self, k, P, E):
        params = ModeParams(k=k, P=P)
        assert period_of(params, E) == pytest.approx(ode_period(params, E),
                                                     rel=1e-9)

    def test_small_energy_limit_no_well(self):
        # harmonic limit 2 pi / (k sqrt(k^2 - P))
        params = ModeParams(k=1, P=0.0)
        assert period_of(params, 1e-8) == pytest.approx(2 * math.pi, rel=1e-4)
        params = ModeParams(k=2, P=1.0)
        assert period_of(params, 1e-8) == pytest.approx(
            2 * math.pi / (2 * math.sqrt(3.0)), rel=1e-4)

    def test_bottom_of_well_limit(self):
        params = ModeParams(k=1, P=2.0)
        target = math.pi * math.sqrt(2.0)  # pi sqrt(2) / (k sqrt(P - k^2))
        assert period_of(params, params.floor_energy) == pytest.approx(
            target, rel=1e-12)
        assert period_of(params, params.floor_energy * (1 - 1e-9)) == \
            pytest.approx(target, rel=1e-4)

    def test_period_diverges_toward_separatrix(self):
        params = ModeParams(k=1, P=2.0)
        assert period_of(params, -1e-12) > 5 * period_of(params, -0.2)

    def test_monotone_decreasing_positive_branch(self):
        params = ModeParams(k=1, P=0.0)
        Es = np.geomspace(1e-3, 1e6, 60)
        Ts = [period_of(params, float(E)) for E in Es]
        assert all(b < a for a, b in zip(Ts, Ts[1:]))

    def test_monotone_increasing_well_branch(self):
        params = ModeParams(k=1, P=2.0)
        floor = params.floor_energy
        Es = floor * (1.0 - np.linspace(1e-6, 1 - 1e-6, 60))
        Ts = [period_of(params, float(E)) for E in Es]
        assert all(b > a for a, b in zip(Ts, Ts[1:]))

    def test_large_energy_decay_law(self):
        # T ~ 4 sigma / (k E^(1/4))
        sig = sigma_constant()
        for k, P in [(1, 0.0), (2, 5.0)]:
            T = period_of(ModeParams(k=k, P=P), 1e12)
            assert T * k * 1e3 / 4 == pytest.approx(sig, rel=1e-3)

    @pytest.mark.parametrize("E", [0.0, 2.5e-15, -2.5e-15])
    def test_trivial_orbit_has_no_period(self, E):
        # without a well, |E| within the classification tolerance is theta == 0
        with pytest.raises(DomainError, match="trivial orbit"):
            period_of(ModeParams(k=1, P=0.5), E)

    @pytest.mark.parametrize("k,P", [
        (1, 0.0), (1, 0.5), (1, 1.0), (1, 2.0), (2, 6.0), (3, 5.0),
        (3, 19.0), (4, 17.0), (5, 26.0), (5, 51.0),
    ])
    def test_matches_mpmath(self, k, P):
        """40-digit K(m) on both branches, from 1e-12 to 1e8 times the
        energy scale, with the well approached from its bottom and its top."""
        mpmath = pytest.importorskip("mpmath")
        params = ModeParams(k=k, P=P)
        gap = P - k * k
        scale = max(gap * gap, 1.0)
        energies = [scale * 10.0 ** j for j in np.arange(-12.0, 8.5, 0.5)]
        if params.has_well:
            f = 10.0 ** np.arange(-12.0, 0.0, 0.5)
            energies += [params.floor_energy * x for x in (*f, *(1.0 - f))]
        with mpmath.workdps(40):
            for E in energies:
                mk, mP, mE = mpmath.mpf(k), mpmath.mpf(P), mpmath.mpf(E)
                mgap = mP - mk * mk
                if E > 0.0:
                    X = 4 * mE + mgap * mgap
                    want = 4 * mpmath.ellipk(0.5 + mgap / (2 * mpmath.sqrt(X))) \
                        / (mk * mpmath.root(X, 4))
                else:
                    s = mpmath.sqrt(mgap * mgap + 4 * mE)
                    want = 2 * mpmath.sqrt(2) * mpmath.ellipk(2 * s / (mgap + s)) \
                        / (mk * mpmath.sqrt(mgap + s))
                assert period_of(params, E) == pytest.approx(float(want), rel=1e-13), E

    def test_well_period_between_limits(self):
        params = ModeParams(k=2, P=7.0)
        bottom = period_of(params, params.floor_energy)
        T = period_of(params, 0.5 * params.floor_energy)
        assert bottom < T < 10 * bottom


class TestOrbits:
    def test_orbit_initial_state_is_turning_point(self):
        orbit = orbit_from_energy(ModeParams(k=1, P=0.0), 2.0)
        theta0, vel0 = orbit.initial_state
        assert theta0 == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert vel0 == 0.0

    @pytest.mark.parametrize("k,P,E,sign", [
        (2, 0.0, 3.0, 1),      # sign-changing, no well
        (1, 5.0, 2.0, 1),      # sign-changing over the hump
        (1, 2.0, -0.1, 1),     # well orbit
        (1, 2.0, -0.1, -1),    # mirrored well orbit
        (1, 2.0, None, 1),     # exact bottom: the constant orbit
    ])
    def test_every_orbit_starts_at_rest(self, k, P, E, sign):
        # hill.monodromy integrates half a coefficient period and unfolds
        # the rest by time reversal, which needs theta'(0) exactly zero
        params = ModeParams(k=k, P=P)
        orbit = constant_orbit(params) if E is None else \
            orbit_from_energy(params, E, sign=sign)
        assert orbit.initial_state[1] == 0.0

    def test_orbit_closes_after_one_period(self):
        for k, P, E in DOP853_CASES + [(1, 2.0, -1e-10), (1, 2.0, 1e-10)]:
            orbit = orbit_from_energy(ModeParams(k=k, P=P), E)
            ends = orbit.states([0.0, orbit.period]) / phase_scale(orbit)
            assert_allclose(ends[1], ends[0], rtol=0, atol=1e-12)

    def test_energy_is_conserved_along_orbit(self):
        params = ModeParams(k=2, P=3.0)
        orbit = orbit_from_energy(params, 5.0)
        ts = np.linspace(0.0, 3.0 * orbit.period, 97)
        Es = [energy_of(params, th, v).value for th, v in orbit.states(ts)]
        assert np.max(np.abs(np.asarray(Es) - 5.0)) < 1e-10

    @pytest.mark.parametrize("k,P,E", DOP853_CASES)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_states_match_dop853(self, k, P, E, sign):
        """The closed form against the integrated orbit at every accepted
        step over three periods."""
        orbit = orbit_from_energy(ModeParams(k=k, P=P), E, sign=sign)
        run = integrate(duffing_rhs(orbit.params), orbit.initial_state,
                        (0.0, 3.0 * orbit.period),
                        IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15))
        error = np.abs(orbit.states(run.times) - run.states) / phase_scale(orbit)
        assert error.max() < 1e-10

    @pytest.mark.parametrize("E", [-1e-10, 1e-10])
    def test_states_match_mpmath_at_the_separatrix(self, E):
        """40-digit cn and dn orbits from the exact energy, either side of
        the separatrix of (k, P) = (1, 2), where kp is about 1e-5."""
        mpmath = pytest.importorskip("mpmath")
        orbit = orbit_from_energy(ModeParams(k=1, P=2.0), E)
        ts = np.linspace(0.0, 3.0 * orbit.period, 61)
        with mpmath.workdps(40):
            root = mpmath.sqrt(1 + 4 * mpmath.mpf(E))    # gap = k^2 - P = -1
            amp = mpmath.sqrt(root + 1)                  # sqrt(sq_hi)
            if E > 0.0:
                w, m = mpmath.sqrt(root), (root + 1) / (2 * root)
            else:
                w, m = mpmath.sqrt((root + 1) / 2), 2 * root / (root + 1)
                inner = amp * mpmath.sqrt(1 - m)         # sqrt(sq_lo)
            want = []
            for t in ts:
                u = w * mpmath.mpf(t)
                sn, cn, dn = (mpmath.ellipfun(f, u, m=m) for f in ("sn", "cn", "dn"))
                want.append((amp * cn, -amp * w * sn * dn) if E > 0.0 else
                            (inner / dn, inner * w * m * sn * cn / dn**2))
            want = np.array(want, dtype=float)
        assert orbit.amplitude == pytest.approx(float(amp), rel=1e-15)
        error = np.abs(orbit.states(ts) - want) / phase_scale(orbit)
        assert error.max() < 1e-11

    def test_states_start_at_the_initial_state(self):
        for k, P, E in DOP853_CASES:
            for sign in (1, -1):
                orbit = orbit_from_energy(ModeParams(k=k, P=P), E, sign=sign)
                assert_allclose(orbit.states(0.0)[0], orbit.initial_state,
                                rtol=1e-15, atol=0)

    def test_negative_branch_orbit(self):
        orbit = orbit_from_energy(ModeParams(k=1, P=2.0), -0.2, sign=-1)
        assert orbit.initial_state[0] < 0.0

    def test_exact_bottom_needs_constant_orbit(self):
        params = ModeParams(k=1, P=2.0)
        with pytest.raises(DomainError):
            orbit_from_energy(params, params.floor_energy)
        orbit = constant_orbit(params)
        assert orbit.amplitude == pytest.approx(1.0, rel=1e-14)
        assert orbit.period == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-14)

    def test_virial_identity_over_one_period(self):
        """a int(theta^2) + (3b/4) int(theta^4) = E T with a = k^2(k^2-P),
        b = k^4; follows from averaging the equation of motion."""
        for k, P, E in [(1, 0.0, 2.0), (2, 3.0, 5.0), (1, 2.0, -0.15)]:
            params = ModeParams(k=k, P=P)
            orbit = orbit_from_energy(params, E)
            rhs = duffing_rhs(params)

            def augmented(t, y):
                d = rhs(t, y[:2])
                return np.array([d[0], d[1], y[0] ** 2, y[0] ** 4, y[1] ** 2])

            traj = integrate(augmented, list(orbit.initial_state) + [0.0] * 3,
                             (0.0, orbit.period), TIGHT)
            _, _, i2, i4, iv2 = traj.final_state
            a = k * k * (k * k - P)
            b = float(k) ** 4
            assert a * i2 + 0.75 * b * i4 == pytest.approx(E * orbit.period,
                                                           rel=1e-9, abs=1e-11)
            # integration by parts: int(thetadot^2) = a int(theta^2) + b int(theta^4)
            assert iv2 == pytest.approx(a * i2 + b * i4, rel=1e-9, abs=1e-11)

    def test_small_energy_amplitude_asymptote(self):
        params = ModeParams(k=2, P=1.0)
        E = 1e-9
        amp_sq = turning_roots(params, E).hi
        assert amp_sq * params.stiffness / (2 * E) == pytest.approx(1.0, rel=1e-4)

    def test_large_energy_amplitude_asymptote(self):
        params = ModeParams(k=2, P=1.0)
        E = 1e12
        amp_sq = turning_roots(params, E).hi
        assert amp_sq * params.k ** 2 / (2 * math.sqrt(E)) == pytest.approx(
            1.0, rel=1e-5)


class TestHomoclinic:
    def test_peak_value_and_energy(self):
        params = ModeParams(k=1, P=2.0)
        peak = homoclinic(params, 0.0)
        assert peak == pytest.approx(math.sqrt(2.0), rel=1e-14)
        for t in (-1.3, 0.0, 0.4, 2.5):
            th = homoclinic(params, t)
            # velocity from the chain rule of sech
            root = params.k * math.sqrt(params.P - params.k ** 2)
            vel = -peak * root * math.tanh(root * t) / math.cosh(root * t)
            assert energy_of(params, th, vel).value == pytest.approx(
                0.0, abs=1e-12)

    def test_satisfies_equation(self):
        params = ModeParams(k=2, P=7.0)
        h = 1e-5
        for t in (-0.8, 0.1, 1.7):
            second = (homoclinic(params, t + h) - 2 * homoclinic(params, t)
                      + homoclinic(params, t - h)) / h ** 2
            th = homoclinic(params, t)
            # stiffness is the full linear coefficient k^2 (k^2 - P)
            force = -(params.stiffness * th + params.k ** 4 * th ** 3)
            # central difference is O(h^2): tolerance reflects h = 1e-5
            assert second == pytest.approx(force, rel=1e-5, abs=1e-5)

    def test_decay_rate(self):
        params = ModeParams(k=1, P=2.0)
        rate = params.k * math.sqrt(params.P - params.k ** 2)
        t = 12.0
        ratio = homoclinic(params, t + 1.0) / homoclinic(params, t)
        assert ratio == pytest.approx(math.exp(-rate), rel=1e-8)

    def test_array_evaluation(self):
        params = ModeParams(k=1, P=2.0)
        ts = np.linspace(-3, 3, 11)
        vals = homoclinic(params, ts)
        assert vals.shape == ts.shape
        assert vals[5] == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_needs_supercritical_load(self):
        with pytest.raises(DomainError):
            homoclinic(ModeParams(k=1, P=0.5), 0.0)


class TestDerivedQuantities:
    def test_scaled_energy_example(self):
        # k = 1, P = 0, E = 2: the turning quadratic has discriminant
        # 4 E + (k^2 - P)^2 = 9, and the period modulus is
        # kappa^2 = 1/2 - 1 / (2 sqrt 9) = hi / (hi - lo) = 1/3
        roots = turning_roots(ModeParams(k=1, P=0.0), 2.0)
        assert (roots.hi - roots.lo) ** 2 / 4.0 == pytest.approx(9.0, rel=1e-14)
        assert roots.hi / (roots.hi - roots.lo) == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_coefficient_period_halves_for_sign_changing(self):
        positive = orbit_from_energy(ModeParams(k=1, P=0.0), 2.0)
        assert positive.coefficient_period == pytest.approx(
            positive.period / 2)
        well = orbit_from_energy(ModeParams(k=1, P=2.0), -0.2)
        assert well.coefficient_period == pytest.approx(well.period)
