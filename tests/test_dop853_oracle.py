"""scipy's DOP853 solver object is the oracle of the float step loop: the
same step control and the same RHS count, with only the summation order of
the stage sums between them.  Each test steps scipy's solver itself, and
the tableau in integrate's source is scipy's, bit for bit.

The stage sums' earlier form, one list comprehension per sum over
zip(y, k0, ...), is the oracle of the form unrolled over the components:
the two compute the same expressions in the same order, so their outputs
are bit-identical."""

import math
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import DOP853
from scipy.optimize import brentq

from beammodes import integrate as integrate_mod
from beammodes.duffing import ModeParams, duffing_rhs, orbit_from_energy, turning_roots
from beammodes.errors import IntegrationError
from beammodes.integrate import IntegratorConfig, find_zero_crossing, integrate
from beammodes.twomode import (EnergyChannels, TwoModeConfig, channel_energies, simulate,
                               total_energy, transfer_report, two_mode_rhs)
from test_duffing import DOP853_CASES

# gate 9's tolerance and its two cases: (2, 1) at P = 3 transfers, at P = 0
# it does not
GATE9 = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
# Past its growth phase the unstable case trades energy back and forth, and
# a 1-ulp change of w0 moves scipy's own step count over t <= 1000 by up to
# 5 per 1000 and its peak ratio by 1.4%.  Step by step the runs are compared
# to t = 50, where they still follow one another.
HORIZON = 50.0


def gate9_config(P):
    w0 = math.sqrt(turning_roots(ModeParams(k=2, P=P), 1.0).hi)
    return TwoModeConfig(m=2, n=1, P=P, w0=w0, w1=0.0, z0=0.0, z1=math.sqrt(2.0e-8))


def harmonic(t, y):
    return [y[1], -y[0]]


def scipy_solver(rhs, y0, t_end, config):
    return DOP853(lambda t, y: rhs(t, y.tolist()), 0.0, np.array(y0, dtype=float),
                  t_end, rtol=config.rel_tol, atol=config.abs_tol)


def scipy_run(rhs, y0, t_end, config):
    """(times, states, nfev) of scipy's solver stepped to t_end."""
    solver = scipy_solver(rhs, y0, t_end, config)
    times, states = [0.0], [np.array(y0, dtype=float)]
    while solver.status == "running":
        solver.step()
        times.append(solver.t)
        states.append(solver.y.copy())
    return np.array(times), np.array(states), solver.nfev


def counted(rhs):
    calls = [0]

    def wrapped(t, y):
        calls[0] += 1
        return rhs(t, y)

    return wrapped, calls


def padded(rows, width):
    """The rows, which stop at the diagonal, as a full array."""
    full = np.zeros((len(rows), width))
    for s, row in enumerate(rows):
        full[s, :len(row)] = row
    return full


def source_tableau():
    """Each array _dop853 reads, by its name in scipy.integrate.DOP853."""
    m = integrate_mod
    assert [len(row) for row in m._A] == list(range(DOP853.n_stages))
    return {"C": m._C, "A": padded(m._A, 12), "B": m._B, "E5": m._E5, "E3": m._E3}


@pytest.mark.parametrize("name", ["C", "A", "B", "E5", "E3"])
def test_tableau_is_scipys(name):
    """Shapes and bits, signed zeros included: an entry 1 ulp off fails."""
    ours, theirs = np.array(source_tableau()[name], dtype=float), getattr(DOP853, name)
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("P", [3.0, 0.0])
def test_gate9_runs_follow_scipy(P):
    config = gate9_config(P)
    ours = simulate(config, HORIZON, GATE9)
    times, states, _ = scipy_run(two_mode_rhs(config), config.initial_state(), HORIZON, GATE9)
    steps = len(ours.trajectory.times) - 1
    assert abs(steps - (len(times) - 1)) <= (len(times) - 1) / 1000
    assert_allclose(ours.trajectory.final_state, states[-1],
                    rtol=0, atol=1e-9 * np.max(np.abs(states[-1])))
    e_w, e_z, e_wz = channel_energies(config, states)
    theirs = EnergyChannels(times, e_w, e_z, e_wz, total_energy(config))
    assert transfer_report(ours.channels).verdict is transfer_report(theirs).verdict


def test_harmonic_oscillator_follows_scipy():
    traj = integrate(harmonic, [1.0, 0.0], (0.0, 50.0), GATE9)
    times, states, _ = scipy_run(harmonic, [1.0, 0.0], 50.0, GATE9)
    assert len(traj.times) == len(times)
    assert_allclose(traj.final_state, states[-1], rtol=0, atol=1e-9)


def zero(t, y):
    return [0.0]


def power(t, y):
    return [t ** 20]


@pytest.mark.parametrize("rhs", [zero, power])
def test_step_control_follows_scipy(rhs):
    """A vanishing derivative takes the initial-step probe's last branch,
    and its steps, of zero error, grow by MAX_FACTOR; under t^20 the steps
    grow until the error jumps far past 1 and h shrinks by MIN_FACTOR."""
    counting, calls = counted(rhs)
    traj = integrate(counting, [0.0], (0.0, 2.0))
    times, _, nfev = scipy_run(rhs, [0.0], 2.0, IntegratorConfig())
    # the error estimates differ in their rounding, and the steps by it
    assert_allclose(traj.times, times, rtol=1e-8, atol=0)
    assert calls[0] == nfev


def test_a_blow_up_fails_where_scipy_fails():
    """y' = y^2 from y = 1 blows up at t = 1: the step shrinks by up to
    MIN_FACTOR per rejection until it falls below 10 ulp(t)."""
    def square(t, y):
        return [y[0] * y[0]]

    rhs, calls = counted(square)
    with pytest.raises(IntegrationError, match="step size underflow") as failure:
        integrate(rhs, [1.0], (0.0, 2.0))
    solver = scipy_solver(square, [1.0], 2.0, IntegratorConfig())
    while solver.status == "running":
        solver.step()
    assert solver.status == "failed"
    assert failure.value.time == pytest.approx(solver.t, rel=1e-14, abs=0)
    assert calls[0] == solver.nfev


class TestRhsCount:
    def test_two_calls_to_start_and_twelve_per_attempt(self, monkeypatch):
        """perfbench/tracing.py counts rejected steps from the RHS calls with
        this rule; the unstable gate-9 case rejects steps."""
        attempt = integrate_mod._dop853(4)
        attempts = [0]

        def counting(*args):
            attempts[0] += 1
            return attempt(*args)

        monkeypatch.setattr(integrate_mod, "_dop853", lambda n: counting)
        config = gate9_config(3.0)
        rhs, calls = counted(two_mode_rhs(config))
        steps = len(integrate(rhs, config.initial_state(), (0.0, HORIZON), GATE9).times) - 1
        assert attempts[0] > steps
        assert calls[0] == 2 + 12 * attempts[0]

    @pytest.mark.parametrize("P", [3.0, 0.0])
    def test_calls_equal_scipys_nfev(self, P):
        config = gate9_config(P)
        rhs, calls = counted(two_mode_rhs(config))
        traj = integrate(rhs, config.initial_state(), (0.0, HORIZON), GATE9)
        times, _, nfev = scipy_run(two_mode_rhs(config), config.initial_state(), HORIZON, GATE9)
        assert len(traj.times) == len(times)
        assert calls[0] == nfev


@pytest.mark.parametrize("k,P,E", DOP853_CASES)
def test_crossing_is_scipys(k, P, E):
    """The search, which re-takes the step where theta' changes sign, meets
    the crossing contract against the root that Brent's method finds on
    scipy's dense_output() over that step: where the first steps are taken
    on rounding noise, as at E = 1e6, the two runs part there."""
    params = ModeParams(k=k, P=P)
    orbit = orbit_from_energy(params, E)
    rhs = duffing_rhs(params)
    solver = scipy_solver(rhs, orbit.initial_state, 3.0 * orbit.period, IntegratorConfig())
    g_prev = float(orbit.initial_state[1])
    while True:
        solver.step()
        if g_prev != 0.0 and g_prev * solver.y[1] <= 0.0:
            break
        g_prev = float(solver.y[1])
    t_new, g_new, theirs = solver.t, float(solver.y[1]), solver.dense_output()
    reference = brentq(lambda t: theirs(t)[1] if t < t_new else g_new, solver.t_old, t_new,
                       xtol=math.ulp(t_new))
    searched = find_zero_crossing(rhs, orbit.initial_state, component=1,
                                  t_max=3.0 * orbit.period)
    assert searched == pytest.approx(reference, rel=1e-10, abs=0)


def _unrolled(row, lead: str, template: str) -> str:
    """Source of a list comprehension over the components that fills template
    with sum_j row[j] * k_j, unrolled over the nonzero row[j]; lead is x_."""
    used = [j for j, a in enumerate(row) if a]
    total = " + ".join(f"{float(row[j])!r} * k{j}_" for j in used)
    names, stages = "".join(f", k{j}_" for j in used), "".join(f", k{j}" for j in used)
    return f"[{template.format(total)} for x_{names} in zip({lead}{stages})]"


@cache
def comprehension_form():
    """attempt with one list comprehension per stage sum, for any state size;
    it returns the error terms e5 and e3, not their squares."""
    n, step = DOP853.n_stages, "x_ + ({}) * h"
    lines = ["def attempt(fun, t, y, k0, h, atol, rtol):"]
    lines += [f"k{s} = fun(t + {float(c)!r} * h, {_unrolled(row[:s], 'y', step)})"
              for s, row, c in zip(range(1, n), DOP853.A[1:], DOP853.C[1:])]
    lines += [f"y_new = {_unrolled(DOP853.B, 'y', step)}", f"k{n} = fun(t + h, y_new)",
              "scale = [atol + max(abs(x_), abs(z_)) * rtol for x_, z_ in zip(y, y_new)]",
              f"e5 = {_unrolled(DOP853.E5, 'scale', '({}) / x_')}",
              f"e3 = {_unrolled(DOP853.E3, 'scale', '({}) / x_')}",
              f"return y_new, e5, e3, k{n}"]
    namespace = {}
    exec("\n".join(line if line.startswith("def ") else "    " + line for line in lines),
         namespace)
    return namespace["attempt"]


def raw(values):
    return np.array(values, dtype=float).tobytes()


def replay(stages, calls):
    """An RHS that records the bits of each (t, y) it is called with and
    returns the next of the given stages."""
    supply = iter(stages)

    def fun(t, y):
        calls.append(raw([t, *y]))
        return next(supply)

    return fun


# Mostly moderate entries, some anywhere in the float range, where the
# sums overflow to inf and nan in both forms alike.
entries = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
                    st.floats(allow_nan=False, allow_infinity=False))


@pytest.mark.parametrize("n", range(1, 9))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_unrolled_sums_are_the_comprehension_form(n, data):
    """attempt calls the RHS with the same bits and returns the same bits as
    the comprehension form; its squared error terms are the squares of the
    form's e5 and e3, and its k12 is the last RHS value."""
    vector = st.lists(entries, min_size=n, max_size=n)
    y, stages = data.draw(vector), data.draw(st.lists(vector, min_size=13, max_size=13))
    t, h = data.draw(st.floats(-1e3, 1e3)), data.draw(st.floats(1e-9, 10.0))
    atol, rtol = data.draw(st.floats(1e-16, 1e-3)), data.draw(st.floats(1e-14, 1e-3))
    ours, theirs = [], []
    y_new, e5, e3, k12 = integrate_mod._dop853(n)(replay(stages[1:], ours), t, y, stages[0],
                                                  h, atol, rtol)
    old_y_new, old_e5, old_e3, old_k12 = comprehension_form()(replay(stages[1:], theirs), t, y,
                                                              stages[0], h, atol, rtol)
    assert ours == theirs and len(ours) == 12
    assert raw(y_new) == raw(old_y_new)
    assert raw(e5) == raw([v * v for v in old_e5])
    assert raw(e3) == raw([v * v for v in old_e3])
    assert raw(k12) == raw(old_k12) == raw(stages[12])


def test_compiled_once_per_state_size(monkeypatch):
    """Runs on states of sizes 2 and 1, each twice and through both entry
    points, compile the stage sums twice: once per size."""
    sources = []

    def counting_exec(source, namespace):
        sources.append(source)
        exec(source, namespace)

    integrate_mod._dop853.cache_clear()
    monkeypatch.setattr(integrate_mod, "exec", counting_exec, raising=False)
    for _ in range(2):
        integrate(harmonic, [1.0, 0.0], (0.0, 5.0))
        find_zero_crossing(harmonic, [1.0, 0.0], component=0)
        integrate(lambda t, y: [-y[0]], [1.0], (0.0, 5.0))
        find_zero_crossing(lambda t, y: [-1.0], [1.0], component=0)
    assert len(sources) == 2
    assert integrate_mod._dop853(2) is integrate_mod._dop853(2)
