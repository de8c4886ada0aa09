"""Adaptive integration of smooth low-dimensional ODE systems.

One DOP853 step loop on Python floats, with scipy's initial-step probe,
step-size control and error norm (Hairer, Norsett & Wanner, Solving ODEs I,
2nd ed., II.4 and II.10); the tableau is module data that the tests check
against scipy's bit for bit.  integrate records the accepted steps;
find_zero_crossing takes the step on which a component changes sign again,
at the lengths brentq (scipy's brentq step for step) asks for, and meets
scipy's dense-output root to 1e-10 relative.  No scipy import.

An RHS maps (t, y), y a list of floats, to dy/dt, a sequence of as many
floats (DomainError otherwise).  Floats overflow silently, so an RHS raises
FloatingPointError on a derivative entry that is not finite (a float **
raises OverflowError), and the loop does on a non-finite norm or accepted
state; each ends the run with an IntegrationError.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator, Sequence

from ._lazy import np
from .errors import (DomainError, IntegrationError, NoCrossingError, StepLimitError,
                     require_count, require_positive_finite)

RHS = Callable[[float, list], Sequence[float]]

# Accepted steps one run may take before the driver gives up.
MAX_STEPS = 1_000_000

# DOP853's floor on rel_tol, scipy's; IntegratorConfig refuses a smaller one.
MIN_REL_TOL = 100 * sys.float_info.epsilon

# scipy's step-size control: safety factor, bounds on the change of h per
# step, and the exponent -1/(q + 1) of the 7th-order error estimate.
SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0

BRENT_RTOL, BRENT_MAXITER = 4 * sys.float_info.epsilon, 100  # scipy brentq's rtol, maxiter

# scipy.integrate.DOP853's tableau as float reprs; rows of A stop at the diagonal.
_C = [0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
      0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
      1.0]
_A = [[], [0.05260015195876773], [0.0197250569845379, 0.0591751709536137], [0.02958758547680685,
      0.0, 0.08876275643042054], [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
      [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242], [0.037109375,
      0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125], [0.03709200011850479, 0.0,
      0.0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023],
      [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
      20.154067550477894, -43.48988418106996], [0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
      -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486,
      -0.020331201708508627], [-0.9371424300859873, 0.0, 0.0, 5.186372428844064,
      1.0914373489967295, -8.149787010746927, -18.52006565999696, 22.739487099350505,
      2.4936055526796523, -3.0467644718982196], [2.273310147516538, 0.0, 0.0, -10.53449546673725,
      -2.0008720582248625, -17.9589318631188, 27.94888452941996, -2.8589982771350235,
      -8.87285693353063, 12.360567175794303, 0.6433927460157636]]
_B = [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
      -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
      0.04471061572777259]
_E5 = [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
       -0.022355307863886294, 0.0]
_E3 = [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
       0.02265179219836082, 0.0]


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances for one integration run.

    rel_tol/abs_tol are the per-step error controls of the embedded pair
    and must be finite and positive (a NaN or infinite tolerance stalls the
    step-size control inside a single step), rel_tol at least MIN_REL_TOL.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not MIN_REL_TOL <= self.rel_tol < math.inf:
            raise DomainError(f"rel_tol must be finite and at least {MIN_REL_TOL!r}, "
                              f"got {self.rel_tol!r}")
        require_positive_finite("abs_tol", self.abs_tol)


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


def _state_vector(initial_state) -> list[float]:
    y0 = np.asarray(initial_state, dtype=float)
    if y0.ndim != 1 or y0.size == 0:
        raise DomainError("initial_state must be a non-empty 1-d vector")
    return y0.tolist()


@cache
def _dop853(n: int):
    """attempt from the tableau above, scipy's bit for bit, for states of
    size n, each stage sum unrolled over the components and the nonzero
    tableau entries.  attempt is scipy's rk_step with k0 = fun(t, y): 12 RHS
    calls, returning y_new, the squares of the error terms e5 and e3 over
    scale, and k12 = fun(t + h, y_new); find_zero_crossing re-takes a step
    with it, at shorter lengths.  Component i of stage j is kj_i."""
    def each(template, row=()):
        """template for the components # = 0..n-1, comma-separated; its {} is
        sum_j row[j] * kj_# over the nonzero row[j]."""
        total = " + ".join(f"{float(a)!r} * k{j}_#" for j, a in enumerate(row) if a)
        return ", ".join(template.format(total).replace("#", str(i)) for i in range(n))

    def stage(s, row, c):
        return (f"k{s} = {each(f'k{s}_#')}, = "
                f"fun(t + {float(c)!r} * h, [{each('y_# + ({}) * h', row)}])")

    lines = ["def attempt(fun, t, y, k0, h, atol, rtol):", f"{each('y_#')}, = y",
             f"{each('k0_#')}, = k0", *map(stage, range(1, 12), _A[1:], _C[1:]),
             f"y_new = {each('z_#')}, = [{each('y_# + ({}) * h', _B)}]",
             "k12 = fun(t + h, y_new)",
             f"{each('sc_#')}, = {each('atol + max(abs(y_#), abs(z_#)) * rtol')},",
             f"{each('e5_#')}, = {each('({}) / sc_#', _E5)},",
             f"{each('e3_#')}, = {each('({}) / sc_#', _E3)},",
             f"return y_new, [{each('e5_# * e5_#')}], [{each('e3_# * e3_#')}], k12"]
    namespace = {}
    exec("\n".join(line if line.startswith("def ") else "    " + line for line in lines),
         namespace)
    return namespace["attempt"]


def _mean_square(squares: list) -> float:
    """fsum: the order of the components does not matter.  Like numpy's raise
    mode, a sum that is not finite raises."""
    total = math.fsum(squares)
    if not total < math.inf:
        kind = "overflow" if total == math.inf else "invalid value"
        raise FloatingPointError(f"{kind} encountered in a step-size norm")
    return total / len(squares)


def _initial_step(fun: RHS, t0: float, y0: list, f0, t_bound: float,
                  config: IntegratorConfig) -> float:
    """scipy's select_initial_step: a first h from the norms of y0, f0 and,
    with one more RHS call, of a difference quotient of f."""
    def rms(values):
        return math.sqrt(_mean_square([v * v for v in values]))

    interval = t_bound - t0
    scale = [config.abs_tol + abs(y) * config.rel_tol for y in y0]
    d0 = rms(y / s for y, s in zip(y0, scale))
    d1 = rms(f / s for f, s in zip(f0, scale))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    f1 = fun(t0 + h0, [y + h0 * f for y, f in zip(y0, f0)])
    d2 = rms((b - a) / s for a, b, s in zip(f0, f1, scale)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(100 * h0, max(1e-6, h0 * 1e-3), interval)
    return min(100 * h0, (0.01 / max(d1, d2)) ** -ERROR_EXPONENT, interval)


def _accepted_steps(system: RHS, y0: list, t0: float, t_bound: float,
                    config: IntegratorConfig) -> Iterator[tuple[float, list, list]]:
    """The one DOP853 loop: yields (t, y, k0 = system(t, y)) at t0 and after
    each accepted step to t_bound.  As in scipy, h >= 10 ulp(t), and a step
    after a rejection does not grow.  A non-finite value ends it with an
    IntegrationError."""
    attempt = _dop853(len(y0))
    t, y, atol, rtol = t0, y0, config.abs_tol, config.rel_tol
    try:
        f = system(t, y)
        if len(f) != len(y):
            raise DomainError(f"the RHS returned {len(f)} entries for a state of size {len(y)}")
        h_abs = _initial_step(system, t, y, f, t_bound, config)
        yield t, y, f
        steps = 0
        while t < t_bound:
            min_step = 10 * (math.nextafter(t, math.inf) - t)
            h_abs, rejected = max(h_abs, min_step), False
            while True:
                if h_abs < min_step:
                    raise IntegrationError("step failure: step size underflow", time=t)
                t_new = min(t + h_abs, t_bound)
                h = h_abs = t_new - t
                y_new, e5, e3, f_new = attempt(system, t, y, f, h, atol, rtol)
                norm5, norm3 = _mean_square(e5), _mean_square(e3)
                error = h * norm5 / math.sqrt(norm5 + 0.01 * norm3) if norm5 else 0.0
                factor = min(MAX_FACTOR, SAFETY * error ** ERROR_EXPONENT) if error else MAX_FACTOR
                if error < 1.0:
                    h_abs *= min(1.0, factor) if rejected else factor
                    break
                h_abs *= max(MIN_FACTOR, factor)
                rejected = True
            if not all(map(math.isfinite, y_new)):
                raise FloatingPointError("overflow encountered in an accepted state")
            t, y, f = t_new, y_new, f_new
            steps += 1
            if steps > MAX_STEPS:
                raise StepLimitError(f"exceeded {MAX_STEPS} steps", time=t)
            yield t, y, f
    except (FloatingPointError, OverflowError) as exc:
        detail = exc if isinstance(exc, FloatingPointError) else f"overflow {exc}"
        raise IntegrationError(f"floating-point failure: {detail}", time=t)


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

    times, states = [], []
    for t, y, _ in _accepted_steps(system, y0, t0, t1, config):
        times.append(t)
        states.append(y)
    return Trajectory(np.array(times), np.array(states, dtype=float))


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """A root of f in [a, b] to within xtol + BRENT_RTOL |root|: scipy's brentq
    (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4) step
    for step, the same probes and the same float.  As in scipy, ValueError for
    ends of one sign or a NaN value, RuntimeError after BRENT_MAXITER steps."""
    def value(x: float) -> float:
        if math.isnan(fx := float(f(x))):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (xtol + BRENT_RTOL * abs(xcur)) / 2, (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # a bisection, unless an interpolation step is short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            with suppress(ZeroDivisionError):  # C's inf or NaN: no short step either
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations.")


def find_zero_crossing(
    system: RHS,
    initial_state: Sequence[float] | np.ndarray,
    component: int,
    *,
    direction: str = "any",
    t_max: float | None = None,
    config: IntegratorConfig = IntegratorConfig(),
) -> float:
    """First time t > 0 at which state[component] crosses zero.

    direction selects "rising" (- to +), "falling" (+ to -) or "any" strict
    sign change.  A component that starts exactly at zero does not count as
    its own crossing.  On the accepted step (t_prev, t_new] where the sign
    changes, Brent's method finds to a few ulps the root of the component
    after the step re-taken from t_prev with length t - t_prev.  That meets
    the root of scipy's DOP853 dense output to 1e-10 relative (where the
    first steps from a turning point are taken on rounding noise, the two
    runs part).  Without t_max the search ends at the step budget
    (StepLimitError).
    """
    if direction not in ("rising", "falling", "any"):
        raise DomainError(f"unknown direction {direction!r}")
    y0 = _state_vector(initial_state)
    require_count("component", component, 0, len(y0) - 1)
    t_bound = math.inf if t_max is None else float(t_max)
    if not t_bound > 0.0:
        raise DomainError(f"t_max must be positive, got {t_max!r}")

    attempt = _dop853(len(y0))
    steps = _accepted_steps(system, y0, 0.0, t_bound, config)
    t_prev, y_prev, k_prev = next(steps)
    for t_new, y_new, k_new in steps:
        g_prev, g_new = y_prev[component], float(y_new[component])
        crossed = (
            (direction == "rising" and g_prev < 0.0 <= g_new)
            or (direction == "falling" and g_prev > 0.0 >= g_new)
            or (direction == "any" and g_prev != 0.0 and g_prev * g_new <= 0.0)
        )
        if crossed:
            # Below t_new, Brent's function is the component after one attempt
            # of length t - t_prev from the step's start; the bracket ends on
            # the step's own g_new, so an exact zero there is returned as is.
            def value(t: float) -> float:
                return attempt(system, t_prev, y_prev, k_prev, t - t_prev, config.abs_tol,
                               config.rel_tol)[0][component] if t < t_new else g_new

            return brentq(value, t_prev, t_new, xtol=math.ulp(t_new))
        t_prev, y_prev, k_prev = t_new, y_new, k_new

    raise NoCrossingError(f"no {direction} crossing of component {component} in (0, {t_bound})",
                          time=t_bound)
