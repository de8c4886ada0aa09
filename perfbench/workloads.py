"""The three workloads: seeded inputs, operations, and their checks.

One operation is one user-level call (a period curve, an atlas row, a
threshold search, a two-mode simulation).  A round runs every operation
of the workload once, in a fixed order; the timed phase repeats whole
rounds, so the share of failing operations is the same in every run.

The seed only jitters values inside fixed bands, so every band is present
under every seed.  Operations listed as known faults use fixed inputs
that do not depend on the seed: they fail deterministically today and are
counted as failed (see README.md, F1 and F2).  Each such operation also
carries the fault's signature, so a failure of any other kind is still
caught.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

# Relative accuracy the period curves are held to against the 40-digit
# reference, and the integrator tolerances of the transfer runs.
PERIOD_REL_TOL = 1e-10
TRANSFER_REL_TOL, TRANSFER_ABS_TOL = 1e-11, 1e-13
TRANSFER_SEED_ENERGY = 1e-8
TRANSFER_DRIFT_TOL = 1e-8
CURVE_POINTS = 32
# F2 misses the reference by at most 2.9e-6 relative on its curves.
F2_ERROR_CAP = 1e-5


@dataclass
class Op:
    """One benchmark operation: `run` calls the program, `check` returns
    a list of problems with its output (empty when correct).  For a known
    fault, `departures` returns the ways a failing output differs from the
    fault's documented signature (empty when it fails exactly so)."""

    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    fingerprint: Callable[[Any], Any] = repr
    known_fault: str | None = None
    departures: Callable[[Any], list[str]] | None = None
    spec: Any = None


@dataclass
class Workload:
    name: str
    ops: list[Op] = field(default_factory=list)

    def warm_up(self) -> None:
        """One call of every operation kind (lazy tables, imports)."""
        seen = set()
        for op in self.ops:
            if op.kind not in seen:
                seen.add(op.kind)
                try:
                    op.run()
                except Exception:       # counted when the timed phase meets it
                    pass


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rel * (2.0 * rng.random() - 1.0))


def _logspace(lo: float, hi: float, count: int) -> list[float]:
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(count)]


def _sample(rng: random.Random, count: int, extra: int = 2) -> list[int]:
    """Indices checked against the reference: both ends of the curve (the
    points nearest the separatrix and the bottom) plus `extra` seeded ones."""
    inner = rng.sample(range(1, count - 1), extra)
    return sorted({0, count - 1, *inner})


# ---------------------------------------------------------------- periods --
def _period_op(bm, rng, name, kind, k, P, energies, known_fault=None) -> Op:
    duffing = bm.duffing
    params = duffing.ModeParams(k=k, P=P)
    energies = sorted(energies)
    sample = _sample(rng, len(energies))

    def run():
        return [duffing.period_of(params, E) for E in energies]

    def measure(periods):
        """Problems with monotonicity, and (E, relative error) at the
        sampled points."""
        import oracles      # here, so that mpmath loads after the timed phase
        problems = []
        well = energies[0] < 0.0
        for i in range(len(periods) - 1):
            a, b = periods[i], periods[i + 1]
            # increasing in E inside a well, decreasing on the positive branch
            if not (a < b if well else a > b):
                problems.append(f"not monotone at E={energies[i]!r}")
                break
        errors = []
        for i in sample:
            ref = oracles.period(k, P, energies[i])
            errors.append((energies[i], abs(periods[i] - ref) / ref))
        return problems, errors

    def check(periods):
        problems, errors = measure(periods)
        return problems + [f"E={E!r}: rel error {err:.2e}"
                           for E, err in errors if not err <= PERIOD_REL_TOL]

    def departures(periods):
        # F2: monotone, and within F2_ERROR_CAP of the reference
        problems, errors = measure(periods)
        return problems + [f"E={E!r}: rel error {err:.2e} beyond F2's "
                           f"{F2_ERROR_CAP:g}"
                           for E, err in errors if not err <= F2_ERROR_CAP]

    return Op(name, kind, run, check, known_fault=known_fault,
              departures=departures if known_fault else None)


def periods(bm, seed: int) -> Workload:
    rng = random.Random(seed)
    work = Workload("periods")
    n = CURVE_POINTS
    for k in range(1, 6):
        k2 = float(k * k)
        loads = {
            "below": k2 * (0.5 + 0.1 * (2.0 * rng.random() - 1.0)),
            "at": k2,
            "above": k2 + k * (1.0 + 0.2 * rng.random()),
            "above2": k2 + 2.0 * k * (1.0 + 0.2 * rng.random()),
        }
        for label, P in loads.items():
            scale = max((P - k2) ** 2, 1.0)
            lo = _jitter(rng, 1e-3, 0.2)
            work.ops.append(_period_op(
                bm, rng, f"positive k={k} P={label}", "positive", k, P,
                _logspace(lo * scale, 1e7 * lo * scale, n)))
        for label in ("below", "at"):
            P = loads[label]
            scale = max((P - k2) ** 2, 1.0)
            hi = _jitter(rng, 1e-2, 0.2)
            work.ops.append(_period_op(
                bm, rng, f"edge k={k} P={label}", "edge-single-well", k, P,
                _logspace(1e-12 * scale, hi * scale, n)))
        for label in ("above", "above2"):
            P = loads[label]
            floor = -0.25 * (P - k2) ** 2
            nearest = _jitter(rng, 1e-3, 0.2)
            work.ops.append(_period_op(
                bm, rng, f"well k={k} P={label}", "well", k, P,
                [floor * f for f in _logspace(nearest, 0.9, n)]))
        P = loads["above2"]
        floor = -0.25 * (P - k2) ** 2
        deepest = _jitter(rng, 1e-9, 0.2)
        work.ops.append(_period_op(
            bm, rng, f"bottom k={k} P=above2", "bottom", k, P,
            [floor * (1.0 - eps) for eps in _logspace(deepest, 1e-2, n)]))
    # F2: edge curves on modes with a well, fixed loads and energies.
    fixed = random.Random(0)
    for k in range(1, 6):
        k2 = float(k * k)
        for P in (k2 + 1.0, 2.0 * k2 + 1.0):
            scale = (P - k2) ** 2
            edge = _logspace(1e-12 * scale, 1e-2 * scale, n)
            work.ops.append(_period_op(
                bm, fixed, f"F2 edge+ k={k} P={P:g}", "edge-well-positive",
                k, P, edge, known_fault="F2"))
            work.ops.append(_period_op(
                bm, fixed, f"F2 edge- k={k} P={P:g}", "edge-well-negative",
                k, P, [-E for E in edge], known_fault="F2"))
    return work


# ------------------------------------------------------------------ atlas --
# Loads per pair, at least one per ordering of P against m^2 and n^2 that
# the pair admits, and some on an ordering's edge P = m^2 or P = n^2:
# (centre, half-width of the seeded band).  Together the pairs cover all
# seven orderings.  Bands stay clear of the F1 loads.
ATLAS_ROWS = {
    (2, 1): [(0.1, 0.1), (1.0, 0.0), (3.0, 0.1), (6.0, 0.1)],
    (1, 2): [(0.1, 0.1), (1.0, 0.0), (3.0, 0.1), (6.0, 0.1)],
    (1, 3): [(0.5, 0.1), (1.0, 0.0), (5.0, 0.2), (9.0, 0.0), (11.0, 0.2)],
    (2, 3): [(2.0, 0.1), (4.0, 0.0), (6.5, 0.2), (11.0, 0.2)],
    (1, 5): [(0.5, 0.1), (1.0, 0.0), (12.0, 0.3)],
    (3, 7): [(4.0, 0.2), (9.0, 0.0), (30.0, 0.5), (49.0, 0.0), (55.0, 0.5)],
}

# Brackets around a transition that the rows show: (m, n, P, E_lo, E_hi).
ATLAS_BRACKETS = [
    (2, 1, 3.0, 2.0, 20.0),
    (1, 2, 6.0, 2.0, 16.0),
    (1, 2, 6.0, -6.0, -4.0),
    (2, 3, 11.0, -4.0, -1.2),
    (1, 3, 11.0, 16.0, 100.0),
    (2, 1, 6.0, 4.0, 64.0),
]

# Interval families I_S(j) = (j(2j+1), (j+1)(2j+1)),
# I_U(j) = ((j+1)(2j+1), (j+1)(2j+3)), as consecutive endpoints.
GAMMA_ENDPOINTS = [0, 1, 3, 6, 10, 15, 21, 28, 36]

# F1: the (1, 5) row at P = 80, thirty energies between the floor and 0,
# of which seven fail the determinant gate.
F1_PAIR, F1_LOAD, F1_POINTS, F1_FAILED_CELLS = (1, 5), 80.0, 30, 7
F1_QUALITY = "error:NumericalQualityError: monodromy determinant drifted"

TRACE_CHECK_DELTA = 1e-3
LARGE_ENERGY = 5e5


def _cells_fingerprint(cells):
    return repr([(c.E, c.trace, c.verdict, c.quality) for c in cells])


def _check_row(cells, pair):
    import oracles
    problems = []
    gamma = Fraction(pair[1] ** 2, pair[0] ** 2)
    for c in cells:
        if not c.ok:
            problems.append(f"E={c.E!r}: {c.quality}")
            continue
        ref = oracles.hill_trace(c.m, c.n, c.P, c.E)
        want = oracles.verdict_of_trace(ref)
        if want != "marginal" and c.verdict != want:
            problems.append(f"E={c.E!r}: {c.verdict}, reference {want} "
                            f"(trace {c.trace!r} vs {ref!r})")
        if c.E >= LARGE_ENERGY:
            limit = oracles.large_energy_verdict(gamma)
            if c.verdict != limit:
                problems.append(f"E={c.E!r}: {c.verdict}, gamma={gamma} "
                                f"gives {limit} at large energy")
    return problems


def _f1_departures(cells):
    """F1: exactly F1_FAILED_CELLS cells fail, all at the determinant gate,
    and every other cell agrees with the reference."""
    failed = [c for c in cells if not c.ok]
    out = [f"E={c.E!r}: {c.quality}" for c in failed
           if not c.quality.startswith(F1_QUALITY)]
    if (len(cells), len(failed)) != (F1_POINTS, F1_FAILED_CELLS):
        out.append(f"{len(failed)} of {len(cells)} cells failed; F1 fails "
                   f"{F1_FAILED_CELLS} of {F1_POINTS}")
    return out + _check_row([c for c in cells if c.ok], F1_PAIR)


def _row_op(bm, name, pair, P, grid, known_fault=None) -> Op:
    atlas = bm.atlas
    spec = atlas.SweepSpec(P=P, modes=[pair], energy_grid=grid)
    return Op(name, "row", lambda: atlas.sweep(spec),
              lambda cells: _check_row(cells, pair), _cells_fingerprint,
              known_fault, _f1_departures if known_fault else None, spec)


def _row_grid(rng, m, P) -> list[float]:
    grid = [_jitter(rng, E, 0.05) for E in (1.0, 1e2, 1e4, 1e6)]
    if m * m < P:
        floor = -0.25 * (P - m * m) ** 2
        return [floor * (1.0 - _jitter(rng, 1e-3, 0.05)),
                floor * _jitter(rng, 0.5, 0.05), floor * _jitter(rng, 0.1, 0.05),
                *grid]
    return [_jitter(rng, 1e-2, 0.05), *grid]


def _threshold_op(bm, rng, m, n, P, lo, hi) -> Op:
    atlas = bm.atlas
    lo, hi = _jitter(rng, lo, 0.03), _jitter(rng, hi, 0.03)

    def check(found):
        import oracles
        if len(found) != 1 or not lo < found[0] < hi:
            return [f"expected one threshold in ({lo!r}, {hi!r}), got {found}"]
        t = found[0]
        step = TRACE_CHECK_DELTA * abs(t)
        ends = [oracles.verdict_of_trace(oracles.hill_trace(m, n, P, E))
                for E in (lo, t - step, t + step, hi)]
        if ends[0] == ends[3] or "marginal" in ends:
            return [f"reference verdicts {ends} at lo, t-, t+, hi"]
        if ends[1] != ends[0] or ends[2] != ends[3]:
            return [f"threshold {t!r} is not where the reference verdict "
                    f"changes: {ends}"]
        return []

    return Op(f"threshold ({m},{n}) P={P:.4g} [{lo:.4g}, {hi:.4g}]", "threshold",
              lambda: atlas.find_thresholds(m, n, P, [lo, hi]), check)


def _limit_op(bm, name, gammas) -> Op:
    atlas = bm.atlas
    spec = atlas.SweepSpec(P=0.0, modes=list(gammas), energy_grid=[1e6],
                           verdict_source=atlas.VerdictSource.CAZENAVE_LIMIT)

    def check(cells):
        import oracles
        problems = []
        for c in cells:
            want = oracles.large_energy_verdict(c.gamma)
            if not c.ok or c.verdict != want:
                problems.append(f"gamma={c.gamma!r}: {c.verdict} {c.quality}, "
                                f"exact membership gives {want}")
        return problems

    return Op(name, "limit", lambda: atlas.sweep(spec), check, _cells_fingerprint)


def atlas(bm, seed: int) -> Workload:
    rng = random.Random(seed)
    work = Workload("atlas")
    for pair, loads in ATLAS_ROWS.items():
        for centre, half in loads:
            P = centre + half * (2.0 * rng.random() - 1.0)
            work.ops.append(_row_op(bm, f"row {pair} P={P:.4g}", pair, P,
                                    _row_grid(rng, pair[0], P)))
    for m, n, P, lo, hi in ATLAS_BRACKETS:
        work.ops.append(_threshold_op(bm, rng, m, n, P, lo, hi))
    intervals = list(zip(GAMMA_ENDPOINTS, GAMMA_ENDPOINTS[1:]))
    for half in (intervals[:4], intervals[4:]):
        gammas = [a + (b - a) * (0.3 + 0.4 * rng.random()) for a, b in half]
        work.ops.append(_limit_op(bm, f"limit gamma in {half}", gammas))
    pair_gammas = sorted({n * n / (m * m) for m, n in ATLAS_ROWS})
    work.ops.append(_limit_op(bm, "limit gamma of the pairs", pair_gammas))
    m = F1_PAIR[0]
    floor = -0.25 * (F1_LOAD - m * m) ** 2
    grid = [floor * (1.0 - (i + 0.5) / F1_POINTS) for i in range(F1_POINTS)]
    work.ops.append(_row_op(bm, f"F1 row {F1_PAIR} P={F1_LOAD:g}", F1_PAIR,
                            F1_LOAD, grid, known_fault="F1"))
    return work


# --------------------------------------------------------------- transfer --
# (m, n, P, E_w, t_end, seeded jitter of E_w).  Pairs of cases on both sides
# of an instability tongue along one (m, n, P) line, gate 9's (2, 1) pair
# at P = 3 and P = 0 with gate 9's energy, and one in-well orbit of mode 1
# at P = 3.  t_end is twenty coefficient periods at the band centre, so
# every case costs a similar number of steps.  Apart from gate 9's P = 3
# case, mode n has no well (n^2 >= P): there E_z >= 0 and the E_z ratio of
# transfer_report measures growth of z.
TRANSFER_CASES = [
    (2, 1, 3.0, 1.0, 22.8, 0.0),
    (2, 1, 0.0, 1.0, 15.1, 0.0),
    (1, 2, 3.0, -0.5, 71.3, 0.04),
    (1, 2, 3.0, 1e2, 16.9, 0.04),
    (2, 3, 4.0, 1e2, 8.3, 0.04),
    (2, 3, 4.0, 1e4, 2.62, 0.04),
    (2, 3, 6.5, 1e2, 8.5, 0.04),
    (2, 3, 6.5, 1e4, 2.63, 0.04),
    (1, 3, 5.0, 1.0, 54.6, 0.04),
    (1, 3, 5.0, 1e6, 1.66, 0.04),
    (1, 5, 12.0, 1e2, 17.9, 0.04),
    (1, 5, 12.0, 1e4, 5.31, 0.04),
    (3, 7, 4.0, 1e2, 5.18, 0.04),
    (3, 7, 30.0, 1e4, 1.79, 0.04),
    (3, 7, 30.0, 1e6, 0.554, 0.04),
]


def _transfer_op(bm, m, n, P, E, t_end) -> Op:
    twomode = bm.twomode
    integrator = bm.integrate.IntegratorConfig(rel_tol=TRANSFER_REL_TOL,
                                               abs_tol=TRANSFER_ABS_TOL)
    gap = P - m * m
    w0 = math.sqrt((gap + math.sqrt(gap * gap + 4.0 * E)) / (m * m))
    config = twomode.TwoModeConfig(m=m, n=n, P=P, w0=w0, w1=0.0, z0=0.0,
                                   z1=math.sqrt(2.0 * TRANSFER_SEED_ENERGY))

    def run():
        result = twomode.simulate(config, t_end, integrator=integrator)
        return result, twomode.transfer_report(result.channels)

    def check(output):
        import oracles
        result, report = output
        problems = []
        drift = oracles.relative_drift(m, n, P, result.trajectory.states)
        if not drift < TRANSFER_DRIFT_TOL:
            problems.append(f"relative energy drift {drift:.2e}")
        want = oracles.verdict_of_trace(oracles.hill_trace(m, n, P, E))
        observed = report.verdict.value == "transfer-observed"
        if want == "marginal" or observed != (want == "unstable"):
            problems.append(f"transfer {report.verdict.value} (ratio "
                            f"{report.max_ratio:.3g}), reference {want}")
        return problems

    def fingerprint(output):
        result, report = output
        return repr((report.to_dict(), result.trajectory.final_state.tolist(),
                     len(result.trajectory.times)))

    return Op(f"transfer ({m},{n}) P={P:g} E={E:.4g}", "transfer", run, check,
              fingerprint)


def transfer(bm, seed: int) -> Workload:
    rng = random.Random(seed)
    work = Workload("transfer")
    for m, n, P, E, t_end, jitter in TRANSFER_CASES:
        work.ops.append(_transfer_op(bm, m, n, P, _jitter(rng, E, jitter), t_end))
    return work


BUILDERS = {"periods": periods, "atlas": atlas, "transfer": transfer}
