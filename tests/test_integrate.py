"""Integrator contract: accuracy, events, budgets, lazy scipy import."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from beammodes import integrate as integrate_mod
from beammodes.errors import (DomainError, IntegrationError, NoCrossingError,
                              StepLimitError)
from beammodes.integrate import IntegratorConfig, find_zero_crossing, integrate


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


def test_step_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(integrate_mod, "MAX_STEPS", 5)
    with pytest.raises(StepLimitError):
        integrate(harmonic, [1.0, 0.0], (0.0, 1000.0))


def test_overflow_is_an_integration_error():
    """Both step loops run in numpy's raise mode, which ends with them: an
    overflow in the RHS fails the run, and the caller's error state is left
    as it was, also after a crossing search returns mid-integration."""
    before = np.geterr()
    with pytest.raises(IntegrationError, match="overflow"):
        integrate(lambda t, y: y ** 8, [1e40], (0.0, 1.0))
    with pytest.raises(IntegrationError, match="overflow"):
        find_zero_crossing(lambda t, y: y ** 8, [1e40], component=0)
    assert find_zero_crossing(harmonic, [1.0, 0.0], component=0) > 0.0
    assert np.geterr() == before


def test_trajectory_records_endpoints():
    traj = integrate(harmonic, [1.0, 0.0], (0.0, 3.0))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(3.0, abs=0)
    assert_allclose(traj.states[0], [1.0, 0.0], rtol=0, atol=0)
    assert traj.sol is None


@pytest.mark.parametrize("bad", [
    dict(rel_tol=0.0), dict(abs_tol=-1e-9),
    dict(rel_tol=math.nan), dict(abs_tol=math.nan),
    dict(rel_tol=math.inf), dict(abs_tol=math.inf),
])
def test_config_validation(bad):
    with pytest.raises(DomainError):
        IntegratorConfig(**bad)


@pytest.mark.parametrize("argv", [
    ["regime", "gamma", "--gamma", "2.25"],
    ["scan", "quartic", "--n-max", "50"],
    ["stationary", "--P", "5"],
    ["mode", "period", "--k", "1", "--P", "0", "--E", "0.5"],
])
def test_commands_without_integration_do_not_import_scipy_integrate(argv):
    """scipy.integrate is imported on first use, so commands that never
    integrate start without paying for it."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = ("import sys\n"
              "from beammodes.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "print('scipy.integrate' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"


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

    def test_step_budget_exhaustion(self, monkeypatch):
        # the crossing at pi/2 lies beyond five steps of this tight search
        monkeypatch.setattr(integrate_mod, "MAX_STEPS", 5)
        cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        with pytest.raises(StepLimitError):
            find_zero_crossing(harmonic, [1.0, 0.0], component=0,
                               direction="falling", config=cfg)

    def test_bad_direction(self):
        with pytest.raises(DomainError):
            find_zero_crossing(harmonic, [1.0, 0.0], component=0,
                               direction="sideways")
