"""Adaptive integration of smooth low-dimensional ODE systems.

A thin driver around scipy's 8th-order Dormand-Prince stepper (DOP853),
which runs in one place: a generator that yields the solver after each
accepted step and owns the failure and step-budget checks.  integrate
records trajectories at the accepted step points; find_zero_crossing scans
the same steps for a sign change of a state component and locates it on
that step's dense interpolant with Brent's method.  scipy is imported on
first use, so commands that never integrate do not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    DomainError,
    IntegrationError,
    NoCrossingError,
    StepLimitError,
)

RHS = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and budgets for one integration run.

    rel_tol/abs_tol are the per-step error controls of the embedded pair
    and must be finite and positive (a NaN or infinite tolerance stalls the
    step-size control inside a single step); max_steps caps the number of
    accepted steps before the driver gives up.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise DomainError(
                f"integrator tolerances must be finite and strictly positive, "
                f"got rel_tol={self.rel_tol!r}, abs_tol={self.abs_tol!r}"
            )
        if self.max_steps < 1:
            raise DomainError("max_steps must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Solution of one integration run.

    times are the accepted step points (strictly increasing, first entry
    the initial time, last entry the end of the span); states[i] is the
    state at times[i].  sol is always None: runs record no dense output,
    and the field stays only because the benchmark's trace hooks read it,
    until a change to the benchmark drops it.
    """

    times: np.ndarray
    states: np.ndarray
    sol: None = None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _state_vector(initial_state) -> np.ndarray:
    y0 = np.asarray(initial_state, dtype=float)
    if y0.ndim != 1 or y0.size == 0:
        raise DomainError("initial_state must be a non-empty 1-d vector")
    return y0


def _accepted_steps(
    system: RHS,
    y0: np.ndarray,
    t0: float,
    t_bound: float,
    config: IntegratorConfig,
) -> Iterator:
    """The one DOP853 loop: yields the solver after each accepted step
    from t0 until it reaches t_bound."""
    from scipy.integrate import DOP853

    solver = DOP853(system, t0, y0, t_bound,
                    rtol=config.rel_tol, atol=config.abs_tol)
    steps = 0
    while solver.status == "running":
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(
                f"step failure: {message or 'step size underflow'}", time=solver.t
            )
        steps += 1
        if steps > config.max_steps:
            raise StepLimitError(
                f"exceeded max_steps = {config.max_steps}", time=solver.t
            )
        yield solver


def integrate(
    system: RHS,
    initial_state: Sequence[float] | np.ndarray,
    t_span: tuple[float, float],
    config: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate y' = system(t, y) over t_span = (t0, t1), t0 < t1."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t0 < t1:
        raise DomainError(f"t_span must satisfy t0 < t1, got {t_span!r}")
    y0 = _state_vector(initial_state)

    times = [t0]
    states = [y0.copy()]
    for solver in _accepted_steps(system, y0, t0, t1, config):
        times.append(solver.t)
        states.append(solver.y.copy())
    return Trajectory(np.asarray(times), np.asarray(states))


def find_zero_crossing(
    system: RHS,
    initial_state: Sequence[float] | np.ndarray,
    component: int,
    *,
    direction: str = "any",
    t_start: float = 0.0,
    t_max: float | None = None,
    config: IntegratorConfig = IntegratorConfig(),
) -> float:
    """First time t > t_start at which state[component] crosses zero.

    direction selects "rising" (- to +), "falling" (+ to -) or "any" strict
    sign change.  A component that starts exactly at zero does not count as
    its own crossing.  The crossing time is the root of the step's dense
    output, found by Brent's method to a few units in the last place, well
    inside the 1e-10 contract.  Without t_max the search ends at the step budget
    (StepLimitError).
    """
    from scipy.optimize import brentq

    if direction not in ("rising", "falling", "any"):
        raise DomainError(f"unknown direction {direction!r}")
    y0 = _state_vector(initial_state)
    if not 0 <= component < y0.size:
        raise DomainError(f"component {component} out of range for state size {y0.size}")
    t_bound = math.inf if t_max is None else float(t_max)
    if t_bound <= t_start:
        raise DomainError("t_max must exceed t_start")

    t_prev, g_prev = float(t_start), float(y0[component])
    for solver in _accepted_steps(system, y0, t_prev, t_bound, config):
        g_new = float(solver.y[component])
        crossed = (
            (direction == "rising" and g_prev < 0.0 <= g_new)
            or (direction == "falling" and g_prev > 0.0 >= g_new)
            or (direction == "any" and g_prev != 0.0 and g_prev * g_new <= 0.0)
        )
        if crossed:
            # The bracket ends on the step's own value g_new: an exact zero
            # there is returned as is, and the interpolant's end value, which
            # may round to the other side of a tiny g_new, is never used.
            segment = solver.dense_output()
            t_new = solver.t
            return brentq(lambda t: segment(t)[component] if t < t_new else g_new,
                          t_prev, t_new, xtol=math.ulp(t_new))
        t_prev, g_prev = solver.t, g_new

    raise NoCrossingError(
        f"no {direction} crossing of component {component} in "
        f"({t_start}, {t_bound})",
        time=t_bound,
    )
