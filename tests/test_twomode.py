"""Coupled two-mode dynamics: conservation, symmetry, energy transfer."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from beammodes import ModeParams
from beammodes.duffing import turning_roots
from beammodes.errors import DomainError, IntegrationError
from beammodes.hill import build_hill, monodromy
from beammodes.integrate import IntegratorConfig, integrate
from beammodes.twomode import (
    CSV_COLUMNS,
    TransferVerdict,
    TwoModeConfig,
    channel_energies,
    channels_csv,
    simulate,
    total_energy,
    transfer_report,
    two_mode_rhs,
)

TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


def seeded(m, n, P, E_w, E_z):
    """Mode m at its turning point carrying E_w; mode n seeded through
    velocity so E_z stays positive for any load."""
    w0 = math.sqrt(turning_roots(ModeParams(k=m, P=P), E_w).hi)
    return TwoModeConfig(m=m, n=n, P=P, w0=w0, w1=0.0, z0=0.0,
                         z1=math.sqrt(2.0 * E_z))


class TestSetup:
    def test_potential_value(self):
        # V = m^2(m^2-P) w^2/2 + n^2(n^2-P) z^2/2 + (m^2 w^2 + n^2 z^2)^2 / 4;
        # at rest the total energy is the potential alone
        v = total_energy(TwoModeConfig(m=1, n=2, P=0.0, w0=1.0, w1=0.0,
                                       z0=1.0, z1=0.0))
        assert v == pytest.approx(0.5 + 8.0 + 25.0 / 4.0, rel=1e-14)

    def test_total_energy_matches_channels(self):
        cfg = seeded(2, 1, 3.0, 1.0, 1e-4)
        e_w, e_z, e_wz = channel_energies(cfg, cfg.initial_state()[None, :])
        assert e_w[0] + e_z[0] + e_wz[0] == pytest.approx(total_energy(cfg),
                                                          rel=1e-13)

    def test_same_mode_rejected(self):
        with pytest.raises(DomainError):
            TwoModeConfig(m=2, n=2, P=0.0, w0=1.0, w1=0.0, z0=0.0, z1=0.0)

    @pytest.mark.parametrize("field", ["w0", "w1", "z0", "z1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_data_rejected(self, field, value):
        data = {**dict(w0=1.0, w1=0.0, z0=0.0, z1=1e-4), field: value}
        with pytest.raises(DomainError, match="finite"):
            TwoModeConfig(m=2, n=1, P=3.0, **data)

    @pytest.mark.parametrize("data", [
        dict(w0=1e200, w1=0.0, z0=0.0, z1=0.0),     # w^4 overflows
        dict(w0=0.0, w1=1e200, z0=0.0, z1=0.0),     # w'^2 overflows
    ])
    def test_overflowing_energy_rejected(self, data):
        with pytest.raises(DomainError, match="energy"):
            TwoModeConfig(m=2, n=1, P=3.0, **data)

    def test_huge_finite_energy_is_accepted(self):
        # a finite total energy is left to the integrator's step budget
        cfg = TwoModeConfig(m=2, n=1, P=3.0, w0=1e70, w1=0.0, z0=0.0, z1=1e-4)
        assert math.isfinite(total_energy(cfg))

    def test_huge_finite_energy_overflows_in_the_integrator(self):
        # the same data fail in the initial-step probe, as the CLI reports
        cfg = TwoModeConfig(m=2, n=1, P=3.0, w0=1e70, w1=0.0, z0=0.0, z1=1e-4)
        with pytest.raises(IntegrationError, match="overflow"):
            simulate(cfg, 1.0)

    def test_rhs_signs(self):
        cfg = TwoModeConfig(m=1, n=2, P=0.0, w0=1.0, w1=0.0, z0=0.5, z1=0.0)
        dy = two_mode_rhs(cfg)(0.0, cfg.initial_state())
        # w'' = -m^2(m^2-P)w - m^2(m^2 w^2 + n^2 z^2)w
        assert dy[1] == pytest.approx(-1.0 - (1.0 + 1.0) * 1.0, rel=1e-14)
        # z'' = -n^2(n^2-P)z - n^2(m^2 w^2 + n^2 z^2)z
        assert dy[3] == pytest.approx(-16.0 * 0.5 - 4.0 * 2.0 * 0.5, rel=1e-14)


class TestInvariants:
    def test_pure_subspace_is_exactly_invariant(self):
        cfg = TwoModeConfig(m=1, n=2, P=0.0, w0=1.3, w1=0.2, z0=0.0, z1=0.0)
        res = simulate(cfg, 30.0)
        assert np.all(res.trajectory.states[:, 2] == 0.0)
        assert np.all(res.trajectory.states[:, 3] == 0.0)

    def test_energy_conservation(self):
        cfg = seeded(2, 1, 3.0, 1.0, 1e-8)
        res = simulate(cfg, 200.0, integrator=TIGHT)
        assert res.channels.drift < 1e-9

    def test_swap_symmetry(self):
        """Exchanging the mode labels and the initial data gives the same
        motion with the roles of (w, z) swapped."""
        a = TwoModeConfig(m=1, n=2, P=0.0, w0=0.9, w1=0.1, z0=0.4, z1=-0.2)
        b = TwoModeConfig(m=2, n=1, P=0.0, w0=0.4, w1=-0.2, z0=0.9, z1=0.1)
        ta = simulate(a, 10.0, integrator=TIGHT).trajectory
        tb = simulate(b, 10.0, integrator=TIGHT).trajectory
        # the swapped runs take the same steps, so they compare step by step
        assert_array_equal(ta.times, tb.times)
        assert_allclose(ta.states[:, :2], tb.states[:, 2:], atol=1e-9)
        assert_allclose(ta.states[:, 2:], tb.states[:, :2], atol=1e-9)

    def test_time_horizon_validated(self):
        for t_end in (-1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="t_end"):
                simulate(seeded(2, 1, 0.0, 1.0, 1e-8), t_end)


class TestTransfer:
    def test_unstable_load_transfers_energy(self):
        cfg = seeded(2, 1, 3.0, 1.0, 1e-8)
        res = simulate(cfg, 100.0, integrator=TIGHT)
        report = transfer_report(res.channels)
        assert report.verdict is TransferVerdict.TRANSFER_OBSERVED
        assert report.max_ratio > 1e3

    def test_stable_load_keeps_energy_locked(self):
        cfg = seeded(2, 1, 0.0, 1.0, 1e-8)
        res = simulate(cfg, 200.0, integrator=TIGHT)
        report = transfer_report(res.channels)
        assert report.verdict is TransferVerdict.NO_TRANSFER
        assert report.max_ratio < 10.0

    def test_growth_rate_matches_floquet_exponent(self):
        """While E_z is tiny the z equation is the linearized problem, so
        log E_z grows at twice the Floquet exponent per unit time."""
        m, n, P, E = 2, 1, 3.0, 1.0
        prob = build_hill(m, n, P, E)
        mono = monodromy(prob, config=TIGHT)
        lam = max(abs(mu) for mu in mono.multipliers)
        rate = math.log(lam) / prob.coeff_period

        cfg = seeded(m, n, P, E, 1e-12)
        # stroboscopic samples: one integration per coefficient period
        rhs, state, states = two_mode_rhs(cfg), cfg.initial_state(), []
        for j in range(9):
            if j >= 2:
                states.append(state)
            span = (j * prob.coeff_period, (j + 1) * prob.coeff_period)
            state = integrate(rhs, state, span, TIGHT).final_state
        ts = np.arange(2, 9) * prob.coeff_period
        _, e_z, _ = channel_energies(cfg, np.array(states))
        slope = np.polyfit(ts, np.log(np.abs(e_z)), 1)[0]
        assert slope == pytest.approx(2.0 * rate, rel=0.1)

    def test_transfer_into_a_mode_with_its_own_well(self):
        """n^2 < P: z falls into its well and E_z turns negative, so the
        transfer shows as a departure from the seed, not as growth."""
        cfg = seeded(2, 1, 3.0, 0.96, 1e-8)
        res = simulate(cfg, 30.0,
                       integrator=IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13))
        assert res.channels.e_z.max() < 2e-8 and res.channels.e_z.min() < -0.5
        report = transfer_report(res.channels)
        assert report.verdict is TransferVerdict.TRANSFER_OBSERVED
        assert report.max_ratio > 1e7

    def test_threshold_must_be_positive(self):
        cfg = seeded(2, 1, 0.0, 1.0, 1e-8)
        res = simulate(cfg, 1.0)
        for threshold in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="threshold"):
                transfer_report(res.channels, threshold=threshold)

    def test_zero_seed_rejected(self):
        cfg = TwoModeConfig(m=2, n=1, P=0.0, w0=1.0, w1=0.0, z0=0.0, z1=0.0)
        res = simulate(cfg, 1.0)
        with pytest.raises(DomainError):
            transfer_report(res.channels)


class TestCsv:
    def test_round_trip(self):
        cfg = seeded(2, 1, 3.0, 1.0, 1e-6)
        res = simulate(cfg, 5.0)
        lines = channels_csv(res).splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(res.trajectory.times) + 1
        # repr floats survive the text round trip exactly
        first = lines[1].split(",")
        assert float(first[0]) == res.trajectory.times[0]
        assert float(first[1]) == res.trajectory.states[0, 0]
        last = lines[-1].split(",")
        assert float(last[5]) == res.channels.e_w[-1]

    def test_deterministic_output(self):
        cfg = seeded(2, 1, 3.0, 1.0, 1e-6)
        assert channels_csv(simulate(cfg, 5.0)) == channels_csv(simulate(cfg, 5.0))
