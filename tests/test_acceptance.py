"""Acceptance gates.

Fourteen numbered end-to-end checks, each printing a single PASS/FAIL
line (visible under pytest -s) and enforcing both a numerical tolerance
and a wall-clock budget.  These pin the package's headline claims:
constants, period laws, monodromy integrity, criteria soundness, the
prediction table, energy transfer, instability windows, exact scans,
the stationary catalog, and bottom-of-well stability.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
import scipy.integrate

from beammodes import ModeParams, classify_stability, period_of, stationary_catalog
from beammodes.atlas import adaptive_amplitude_sweep, verdict_runs
from beammodes.duffing import duffing_rhs, orbit_from_energy, turning_roots
from beammodes.errors import NumericalQualityError
from beammodes.hill import Verdict
from beammodes.integrate import IntegratorConfig, find_zero_crossing
from beammodes.regime import (cazenave_limit_classify, classify_gamma_value,
                              resonance_quartic_scan)
from beammodes.special import comparison_bounds, sigma_constant
from beammodes.stationary import residual_check
from beammodes.twomode import TwoModeConfig, simulate, transfer_report

TIGHT = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} - {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


def ode_half_period(params: ModeParams, E: float, t_max: float) -> float:
    """First velocity zero after leaving a turning point; T/2 by symmetry.

    In-well orbits start at their inner turning point (positive initial
    acceleration, falling crossing); sign-changing orbits start at the
    amplitude (rising crossing).
    """
    rhs = duffing_rhs(params)
    y0 = np.array(orbit_from_energy(params, E).initial_state)
    direction = "falling" if rhs(0.0, y0)[1] > 0.0 else "rising"
    return find_zero_crossing(rhs, y0, component=1, direction=direction,
                              t_max=t_max, config=TIGHT)


@pytest.fixture(scope="module")
def randomized_battery():
    """200 random admissible classifications with a conditioning guard.

    Draws whose monodromy trace exceeds 1e3 in magnitude are redrawn:
    entries of size M make det a difference of O(M^2) products, so beyond
    M ~ 1e3 a det-vs-1 residual at 1e-8 measures double-precision
    cancellation, not integrator quality.  Draws that trip the internal
    quality gate are likewise redrawn (and counted).
    """
    rng = np.random.default_rng(20260817)
    pairs = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]
    reports, redraws = [], 0
    start = time.perf_counter()
    while len(reports) < 200:
        m, n = pairs[rng.integers(len(pairs))]
        P = float(rng.uniform(0.0, 1.5 * max(m * m, n * n)))
        params = ModeParams(k=m, P=P)
        if params.has_well and rng.random() < 0.5:
            E = params.floor_energy * float(rng.uniform(0.05, 0.95))
        else:
            E = float(10.0 ** rng.uniform(-2.0, 4.0))
        try:
            result = classify_stability(m, n, P, E, config=TIGHT)
        except NumericalQualityError:
            redraws += 1
            continue
        if abs(result.monodromy.trace) > 1e3:
            redraws += 1
            continue
        reports.append(result)
    elapsed = time.perf_counter() - start
    return reports, redraws, elapsed


def test_criterion_01_sigma_constant():
    start = time.perf_counter()
    sigma = sigma_constant()
    elapsed = time.perf_counter() - start
    oracle, err = scipy.integrate.quad(lambda t: (1.0 - t**4) ** -0.5, 0.0, 1.0)
    three_decimals = round(sigma, 3) == 1.311
    vs_oracle = abs(sigma - oracle) <= 1e-10 and err < 1e-8
    ok = three_decimals and vs_oracle and elapsed < 1e-3
    report(1, ok, f"sigma={sigma:.12f}, |sigma-oracle|={abs(sigma - oracle):.2e}, "
           f"{elapsed * 1e6:.0f}us")


def test_criterion_02_period_limits():
    start = time.perf_counter()
    free = ModeParams(k=1, P=0.0)
    well = ModeParams(k=1, P=2.0)
    small_gap = abs(period_of(free, 1e-8) - 2.0 * math.pi)
    bottom_gap = abs(period_of(well, -0.25 + 1e-9) - math.pi * math.sqrt(2.0))
    grid_pos = [period_of(free, E) for E in np.geomspace(1e-4, 9.0e5, 50)]
    decreasing = all(b < a for a, b in zip(grid_pos, grid_pos[1:]))
    grid_well = [period_of(well, E)
                 for E in np.linspace(-0.25 + 1e-6, -1e-4, 50)]
    increasing = all(b > a for a, b in zip(grid_well, grid_well[1:]))
    elapsed = time.perf_counter() - start
    ok = (small_gap <= 1e-3 and bottom_gap <= 1e-3 and decreasing
          and increasing and elapsed < 5.0)
    report(2, ok, f"|T(1e-8)-2pi|={small_gap:.1e}, "
           f"|T(bottom)-pi*sqrt2|={bottom_gap:.1e}, "
           f"monotone={decreasing and increasing}, {elapsed:.2f}s")


def test_criterion_03_period_cross_validation():
    start = time.perf_counter()
    worst = 0.0
    cells = 0
    for k in range(1, 6):
        for c in (0.0, 0.5, 1.0, 1.5, 2.5):
            params = ModeParams(k=k, P=c * k * k)
            if params.has_well:
                fl = params.floor_energy
                energies = (0.75 * fl, 0.25 * fl, 0.8, 50.0)
            else:
                energies = (0.01, 0.8, 50.0, 2000.0)
            for E in energies:
                T = period_of(params, E)
                half = ode_half_period(params, E, t_max=1.5 * T)
                worst = max(worst, abs(2.0 * half - T) / T)
                cells += 1
    elapsed = time.perf_counter() - start
    ok = cells == 100 and worst <= 1e-6 and elapsed < 60.0
    report(3, ok, f"{cells} cells, worst rel {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_large_energy_law():
    start = time.perf_counter()
    sigma = sigma_constant()
    E = 1.0e8
    T = period_of(ModeParams(k=2, P=0.0), E)
    # a = 1 + 4 theta^2 > 0 along this orbit, so the Li-Zhang lhs of the
    # Hill pass, (T/2)^3 int_0^{T/2} (a^+)^2, is the cube law's (T/2)^3 I
    cube_law = classify_stability(2, 1, 0.0, E).criteria.li_zhang.lhs
    elapsed = time.perf_counter() - start
    cube_target = (64.0 * 1 ** 4 / (3.0 * 2 ** 4)) * sigma ** 4
    cube_rel = abs(cube_law - cube_target) / cube_target
    period_target = 4.0 * sigma / (2.0 * E ** 0.25)
    period_rel = abs(T - period_target) / period_target
    ok = cube_rel <= 0.02 and period_rel <= 0.01 and elapsed < 10.0
    report(4, ok, f"(T/2)^3 I rel {cube_rel:.2e} (<=2%), "
           f"T rel {period_rel:.2e} (<=1%), {elapsed:.2f}s")


def test_criterion_05_monodromy_integrity(randomized_battery):
    reports, redraws, elapsed = randomized_battery
    worst_det = max(abs(r.monodromy.det - 1.0) for r in reports)
    worst_prod = max(
        abs(r.monodromy.multipliers[0] * r.monodromy.multipliers[1] - 1.0)
        for r in reports)
    ok = (len(reports) == 200 and worst_det <= 1e-8 and worst_prod <= 1e-8
          and elapsed < 120.0)
    report(5, ok, f"200 cases ({redraws} redrawn), worst |det-1| "
           f"{worst_det:.1e}, worst |l1*l2-1| {worst_prod:.1e}, {elapsed:.1f}s")


def test_criterion_06_criteria_soundness(randomized_battery):
    reports, _, _ = randomized_battery
    disagreements = 0
    for r in reports:
        # stability criteria must never accompany an Unstable verdict,
        # the instability criterion never a Stable one; Marginal agrees
        if r.criteria.zhukovskii.applies and r.verdict is Verdict.UNSTABLE:
            disagreements += 1
        if r.criteria.li_zhang.applies and r.verdict is Verdict.UNSTABLE:
            disagreements += 1
        if (r.criteria.negative_coefficient.applies
                and r.verdict is Verdict.STABLE):
            disagreements += 1
    applied = sum(
        r.criteria.zhukovskii.applies + r.criteria.li_zhang.applies
        + r.criteria.negative_coefficient.applies for r in reports)
    ok = disagreements == 0 and applied > 0
    report(6, ok, f"{disagreements} disagreements, criteria applied "
           f"{applied} times across 200 cases")


def test_criterion_07_prediction_table():
    expected = [
        (2, 1, 0.0, Verdict.STABLE, Verdict.STABLE),
        (2, 1, 3.0, Verdict.UNSTABLE, Verdict.STABLE),
        (2, 1, 6.0, Verdict.UNSTABLE, Verdict.STABLE),
        (1, 2, 0.0, Verdict.STABLE, Verdict.STABLE),
        (1, 2, 1.0, None, Verdict.STABLE),        # low-energy cell undetermined
        (1, 2, 3.0, Verdict.STABLE, Verdict.STABLE),
        (1, 2, 6.0, Verdict.STABLE, Verdict.STABLE),
    ]
    start = time.perf_counter()
    mismatches = []
    for m, n, P, low, high in expected:
        params = ModeParams(k=m, P=P)
        if low is not None:
            got = classify_stability(m, n, P, params.floor_energy + 1e-3).verdict
            if got is not low:
                mismatches.append((m, n, P, "low", got.value))
        got = classify_stability(m, n, P, 1e6).verdict
        if got is not high:
            mismatches.append((m, n, P, "high", got.value))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 60.0
    report(7, ok, f"13 verdict cells, mismatches {mismatches or 'none'}, "
           f"{elapsed:.1f}s")


def test_criterion_08_limit_dichotomy():
    start = time.perf_counter()
    failures = []
    for gamma in (1.5, 2.25, 4.0, 5.0, 5.44, 8.0, 12.0):
        member = classify_gamma_value(gamma).membership.value
        want = Verdict.UNSTABLE if member == "I_U" else Verdict.STABLE
        got = cazenave_limit_classify(gamma).verdict
        if got is not want:
            failures.append((gamma, got.value))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    report(8, ok, f"7 gammas, failures {failures or 'none'}, {elapsed:.2f}s")


def test_criterion_09_energy_transfer():
    start = time.perf_counter()
    outcome = {}
    for P in (3.0, 0.0):
        params = ModeParams(k=2, P=P)
        w0 = math.sqrt(turning_roots(params, 1.0).hi)   # E_w(0) = 1
        config = TwoModeConfig(m=2, n=1, P=P, w0=w0, w1=0.0,
                               z0=0.0, z1=math.sqrt(2.0e-8))  # E_z(0) = 1e-8
        result = simulate(config, 1000.0, integrator=TIGHT)
        ratio = transfer_report(result.channels).max_ratio
        drift = abs(result.channels.drift) / abs(result.channels.total)
        outcome[P] = (ratio, drift)
    elapsed = time.perf_counter() - start
    ok = (outcome[3.0][0] > 1e3 and outcome[0.0][0] < 10.0
          and outcome[3.0][1] < 1e-8 and outcome[0.0][1] < 1e-8
          and elapsed < 60.0)
    report(9, ok, f"unstable ratio {outcome[3.0][0]:.2e} (>1e3), stable ratio "
           f"{outcome[0.0][0]:.2f} (<10), drifts {outcome[3.0][1]:.1e}/"
           f"{outcome[0.0][1]:.1e}, {elapsed:.1f}s")


def test_criterion_10_two_instability_windows():
    start = time.perf_counter()
    cells = adaptive_amplitude_sweep(3, 7, 0.0, 50.0, 400, jobs=4)
    runs = verdict_runs(cells, Verdict.UNSTABLE)
    elapsed = time.perf_counter() - start
    windows = [(cells[a].theta0, cells[b].theta0) for a, b in runs]
    ok = len(cells) == 400 and len(runs) >= 2 and elapsed < 600.0
    report(10, ok, f"400-cell sweep, {len(runs)} disjoint unstable runs at "
           f"theta0 {windows}, {elapsed:.1f}s")


def test_criterion_11_quartic_scan():
    start = time.perf_counter()
    hits = resonance_quartic_scan(500)
    elapsed = time.perf_counter() - start
    ok = hits == [] and elapsed < 30.0
    report(11, ok, f"no integer roots up to n=500, {elapsed:.2f}s")


def test_criterion_12_stationary_catalog():
    start = time.perf_counter()
    catalog = stationary_catalog(5.0)
    grid = np.linspace(0.0, math.pi, 401)
    amplitudes = sorted({s.amplitude for s in catalog if s.j > 0})
    energies = sorted({s.energy for s in catalog if s.j > 0})
    morse = Counter(s.morse_index for s in catalog)
    residual = max(residual_check(s, 5.0, grid) for s in catalog)
    elapsed = time.perf_counter() - start
    ok = (amplitudes == [0.5, 2.0]
          and energies == pytest.approx([-2.0 * math.pi, -math.pi / 8.0])
          and morse == Counter({0: 2, 1: 2, 2: 1})
          and residual < 1e-10 and elapsed < 1.0)
    report(12, ok, f"amplitudes {amplitudes}, energies "
           f"[{energies[0]:.4f}, {energies[1]:.4f}], max residual "
           f"{residual:.1e}, {elapsed:.2f}s")


def test_criterion_13_envelope_inequality():
    start = time.perf_counter()
    zs = np.linspace(0.0, 0.5, 1002)[1:-1]

    def holds(eps):
        return all(comparison_bounds(z, eps)[0] < comparison_bounds(z, eps)[2]
                   for z in zs)

    tight_margin = holds(21.0 / 22.0)
    tighter_margin = holds(26.0 / 27.0)
    breaks = not holds(27.0 / 28.0)
    elapsed = time.perf_counter() - start
    ok = tight_margin and tighter_margin and breaks and elapsed < 1.0
    report(13, ok, f"f<h at eps=21/22: {tight_margin}, at 26/27: "
           f"{tighter_margin}, violated at 27/28: {breaks}, {elapsed:.2f}s")


def test_criterion_14_bottom_of_well_stability():
    start = time.perf_counter()
    config = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    verdicts = {}
    for P in (3.0, 7.0):
        bottom = ModeParams(k=1, P=P).floor_energy
        result = classify_stability(1, 2, P, bottom * (1.0 - 1e-4),
                                    config=config, tol_margin=1e-9)
        verdicts[P] = result.verdict
    elapsed = time.perf_counter() - start
    ok = (all(v is Verdict.STABLE for v in verdicts.values())
          and elapsed < 30.0)
    report(14, ok, f"near-bottom verdicts "
           f"{[v.value for v in verdicts.values()]}, {elapsed:.1f}s")
