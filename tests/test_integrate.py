"""Integrator contract: accuracy, dense output, events, budgets."""

import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from beammodes import (
    DomainError,
    IntegratorConfig,
    NoCrossingError,
    StepLimitError,
    find_zero_crossing,
    integrate,
)


def harmonic(t, y):
    return np.array([y[1], -y[0]])


def test_harmonic_oscillator_accuracy():
    traj = integrate(harmonic, [1.0, 0.0], (0.0, 10.0))
    assert_allclose(traj.final_state, [math.cos(10.0), -math.sin(10.0)],
                    rtol=0, atol=1e-8)


def test_linear_system_against_expm():
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = rng.normal(size=(3, 3))
        A -= np.eye(3) * max(0.0, np.linalg.eigvals(A).real.max())  # keep bounded
        y0 = rng.normal(size=3)
        t_end = 2.5
        traj = integrate(lambda t, y: A @ y, y0, (0.0, t_end))
        assert_allclose(traj.final_state, scipy.linalg.expm(A * t_end) @ y0,
                        rtol=1e-7, atol=1e-9)


def test_dense_output_between_steps():
    traj = integrate(harmonic, [1.0, 0.0], (0.0, 20.0))
    ts = np.linspace(0.3, 19.7, 137)
    states = traj.sample(ts)
    assert_allclose(states[:, 0], np.cos(ts), atol=2e-8)
    assert_allclose(states[:, 1], -np.sin(ts), atol=2e-8)


def test_sample_requires_dense():
    traj = integrate(harmonic, [1.0, 0.0], (0.0, 1.0), dense=False)
    with pytest.raises(DomainError):
        traj.sample([0.5])


def test_tolerance_controls_error():
    """Final-state error decreases (weakly) as rel_tol tightens."""
    errs = []
    for rtol in (1e-5, 1e-8, 1e-11):
        cfg = IntegratorConfig(rel_tol=rtol, abs_tol=rtol * 1e-2)
        traj = integrate(harmonic, [1.0, 0.0], (0.0, 50.0), cfg)
        exact = np.array([math.cos(50.0), -math.sin(50.0)])
        errs.append(np.max(np.abs(traj.final_state - exact)))
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] < 1e-8


def test_time_reversal_symmetry():
    # run forward, flip the velocity, run the same span again: back to start
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    fwd = integrate(harmonic, [0.3, 0.7], (0.0, 13.0), cfg)
    q, p = fwd.final_state
    back = integrate(harmonic, [q, -p], (0.0, 13.0), cfg)
    assert_allclose(back.final_state, [0.3, -0.7], atol=1e-9)


def test_step_budget_exhaustion():
    cfg = IntegratorConfig(max_steps=5)
    with pytest.raises(StepLimitError):
        integrate(harmonic, [1.0, 0.0], (0.0, 1000.0), cfg)


def test_trajectory_records_endpoints():
    traj = integrate(harmonic, [1.0, 0.0], (0.0, 3.0))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(3.0, abs=0)
    assert_allclose(traj.initial_state, [1.0, 0.0], rtol=0, atol=0)


@pytest.mark.parametrize("bad", [
    dict(rel_tol=0.0), dict(abs_tol=-1e-9), dict(max_steps=0),
    dict(rel_tol=math.nan), dict(abs_tol=math.nan),
    dict(rel_tol=math.inf), dict(abs_tol=math.inf),
])
def test_config_validation(bad):
    with pytest.raises(DomainError):
        IntegratorConfig(**bad)


class TestZeroCrossing:
    def test_falling_crossing_of_cosine(self):
        # state starts at [1, 0] = (cos, -sin); component 0 falls through 0 at pi/2
        t = find_zero_crossing(harmonic, [1.0, 0.0], component=0,
                               direction="falling")
        assert t == pytest.approx(math.pi / 2, abs=1e-10)

    def test_rising_crossing(self):
        t = find_zero_crossing(harmonic, [1.0, 0.0], component=0,
                               direction="rising")
        assert t == pytest.approx(3 * math.pi / 2, abs=1e-10)

    def test_start_exactly_at_zero_finds_next(self):
        """A component sitting at zero at t_start is not itself a crossing."""
        t = find_zero_crossing(harmonic, [0.0, 1.0], component=0,
                               direction="any")
        assert t == pytest.approx(math.pi, abs=1e-10)

    def test_component_velocity(self):
        t = find_zero_crossing(harmonic, [1.0, 0.0], component=1,
                               direction="any")
        assert t == pytest.approx(math.pi, abs=1e-10)

    def test_no_crossing_raises(self):
        with pytest.raises(NoCrossingError):
            find_zero_crossing(lambda t, y: np.array([0.0]), [1.0],
                               component=0, t_max=5.0)

    def test_wrong_direction_runs_past(self):
        with pytest.raises(NoCrossingError):
            find_zero_crossing(harmonic, [1.0, 0.0], component=0,
                               direction="rising", t_max=4.0)

    def test_t_start_offset(self):
        t = find_zero_crossing(harmonic, [1.0, 0.0], component=0,
                               direction="falling", t_start=2.0)
        assert t == pytest.approx(2.0 + math.pi / 2, abs=1e-10)

    def test_tight_config_sharpens_crossing(self):
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        t = find_zero_crossing(harmonic, [1.0, 0.0], component=0,
                               direction="falling", config=cfg)
        assert t == pytest.approx(math.pi / 2, abs=1e-12)

    def test_two_dimensional_state_rejected(self):
        with pytest.raises(DomainError):
            find_zero_crossing(harmonic, [[1.0, 0.0]], component=0)

    def test_step_budget_exhaustion(self):
        # the crossing at pi/2 lies beyond five steps of this tight search
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, max_steps=5)
        with pytest.raises(StepLimitError):
            find_zero_crossing(harmonic, [1.0, 0.0], component=0,
                               direction="falling", config=cfg)

    def test_bad_direction(self):
        with pytest.raises(DomainError):
            find_zero_crossing(harmonic, [1.0, 0.0], component=0,
                               direction="sideways")
