"""Stability atlases: grids of Floquet verdicts over amplitude or energy.

Every verdict comes from one cell evaluator: the (m, n) Hill monodromy at
one energy, or the large-energy limit of one gamma.  A sweep runs it over
a grid of initial amplitudes theta0 (or energies) at fixed load, one cell
per grid point.  Cells are computed independently, in deterministic
row-major order (mode pairs outer, grid inner), optionally across worker
processes; a failing cell records the failure in its quality flag instead
of aborting the sweep.  The adaptive amplitude sweep adds cells to a
uniform backbone sweep where a verdict change may hide, and threshold
finding solves |trace| = 2 between cells whose verdicts differ.
"""

from __future__ import annotations

import functools
import heapq
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Sequence

from .duffing import ModeParams, energy_from_initial_amplitude
from .errors import (BeamModesError, DomainError, csv_text, require_count,
                     require_finite, require_positive_finite, require_positive_int)
from .hill import (DEFAULT_TOL_MARGIN, MonodromyResult, Verdict,
                   classify_stability, require_tol_margin)
from .integrate import IntegratorConfig
from .regime import cazenave_limit_classify

CSV_HEADER = "gamma,m,n,P,theta0,E,trace,verdict,quality"


class VerdictSource(Enum):
    MONODROMY = "monodromy"
    CAZENAVE_LIMIT = "cazenave-limit"


@dataclass(frozen=True)
class SweepSpec:
    """One atlas sweep: mode pairs x amplitude (or energy) grid at fixed P.

    modes entries are (m, n) integer pairs; for the large-energy limit
    source they may instead be bare gamma values (the grid then only
    echoes into the output).  Exactly one of theta0_grid / energy_grid
    must be given.
    """

    P: float
    modes: Sequence[tuple[int, int] | float]
    theta0_grid: Sequence[float] | None = None
    energy_grid: Sequence[float] | None = None
    verdict_source: VerdictSource = VerdictSource.MONODROMY
    integrator: IntegratorConfig = IntegratorConfig()
    tol_margin: float = DEFAULT_TOL_MARGIN

    def __post_init__(self):
        require_finite("load P", self.P)
        if (self.theta0_grid is None) == (self.energy_grid is None):
            raise DomainError("give exactly one of theta0_grid or energy_grid")
        grid = self.theta0_grid if self.theta0_grid is not None else self.energy_grid
        if len(grid) == 0:
            raise DomainError("sweep grid must be non-empty")
        values = [float(v) for v in grid]
        if not all(map(math.isfinite, values)) or \
                any(b <= a for a, b in zip(values, values[1:])):
            raise DomainError("sweep grid must be finite and strictly increasing")
        require_tol_margin(self.tol_margin)
        if not self.modes:
            raise DomainError("sweep needs at least one mode entry")
        for entry in self.modes:
            if isinstance(entry, (tuple, list)):
                m, n = entry
                require_positive_int("m", m)
                require_positive_int("n", n)
            elif self.verdict_source is not VerdictSource.CAZENAVE_LIMIT:
                raise DomainError(
                    "bare gamma entries need the large-energy limit source"
                )


@dataclass(frozen=True)
class AtlasCell:
    gamma: float
    m: int
    n: int
    P: float
    theta0: float
    E: float
    trace: float
    verdict: str
    quality: str

    @property
    def ok(self) -> bool:
        return self.quality == "ok"


def _mode_fields(entry) -> tuple[int, int, float]:
    """(m, n, gamma) of a mode entry; a bare gamma has m = n = 0."""
    if isinstance(entry, tuple):
        m, n = entry
        return m, n, (n * n) / (m * m)
    return 0, 0, float(entry)


def _verdict(spec: SweepSpec, entry, E: float) -> MonodromyResult:
    """The classified matrix of one cell: the (m, n) monodromy at energy E,
    or the large-energy limit of the entry's gamma.  Raises BeamModesError
    when the cell cannot be classified.  Every atlas verdict comes from
    here; the classifiers are looked up as module globals at call time."""
    m, n, gamma = _mode_fields(entry)
    if spec.verdict_source is VerdictSource.CAZENAVE_LIMIT:
        return cazenave_limit_classify(gamma, tol_margin=spec.tol_margin)
    return classify_stability(m, n, spec.P, E, config=spec.integrator,
                              tol_margin=spec.tol_margin).monodromy


def _cell(spec: SweepSpec, point: tuple) -> AtlasCell:
    """The cell at point = (entry, theta0, E); a failure is recorded in its
    quality flag instead of raised."""
    entry, theta0, E = point
    m, n, gamma = _mode_fields(entry)
    try:
        result = _verdict(spec, entry, E)
        trace, verdict, quality = result.trace, result.verdict.value, "ok"
    except BeamModesError as exc:
        trace, verdict = math.nan, "none"
        quality = f"error:{type(exc).__name__}: {exc}"
    return AtlasCell(gamma=gamma, m=m, n=n, P=float(spec.P), theta0=theta0, E=E,
                     trace=trace, verdict=verdict, quality=quality)


def _points(spec: SweepSpec) -> list[tuple]:
    """The (entry, theta0, E) of every cell, mode entries outer; the axis
    not swept is NaN, except that an (m, n) pair on the theta0 axis gets
    the energy of its mode m."""
    by_theta = spec.theta0_grid is not None
    points = []
    for entry in spec.modes:
        entry = tuple(entry) if isinstance(entry, (tuple, list)) else float(entry)
        for value in map(float, spec.theta0_grid if by_theta else spec.energy_grid):
            if not by_theta:
                points.append((entry, math.nan, value))
            elif isinstance(entry, tuple):
                params = ModeParams(k=int(entry[0]), P=spec.P)
                points.append((entry, value, energy_from_initial_amplitude(params, value)))
            else:
                points.append((entry, value, math.nan))
    return points


# Fewest cells per worker before a pool pays for its start-up and pickling.
# Serial against jobs=2 on 2 vCPUs, (1, 2) at P = 0 over theta0 in [0.1, 2.1),
# medians of 7 runs with no floor: 0.024 / 0.029 s at 8 cells, 0.046 / 0.047 s
# at 16, 0.084 / 0.067 s at 32, 0.175 / 0.130 s at 64 and 0.344 / 0.204 s at
# 128 (about 3 ms a cell).
MIN_CELLS_PER_WORKER = 16


def sweep(spec: SweepSpec, jobs: int = 1) -> list[AtlasCell]:
    """Evaluate the sweep; the cell order (and every cell value) is
    independent of the worker count.

    The pool starts every worker up front, so it gets no more workers than
    there are cores, and each gets at least MIN_CELLS_PER_WORKER cells;
    below two workers no pool runs at all.
    """
    if jobs < 1:
        raise DomainError("jobs must be at least 1")
    points = _points(spec)
    workers = min(jobs, os.cpu_count() or 1, len(points) // MIN_CELLS_PER_WORKER)
    if workers < 2:
        return [_cell(spec, p) for p in points]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(functools.partial(_cell, spec), points,
                             chunksize=max(1, len(points) // (4 * workers))))


def _interval_score(left: AtlasCell, right: AtlasCell, margin_floor: float) -> float | None:
    """Refinement priority for the gap between two classified cells.

    None means the interval is not worth splitting (a failed cell, or
    both ends already inside the same unstable run).
    """
    if not (left.ok and right.ok):
        return None
    width = right.theta0 - left.theta0
    left_unstable = left.verdict == Verdict.UNSTABLE.value
    right_unstable = right.verdict == Verdict.UNSTABLE.value
    if left_unstable and right_unstable:
        return None
    if left_unstable or right_unstable:
        # boundary already bracketed; sharpen it, but after pocket hunting
        return 2.0 * width
    fmax = max(abs(left.trace), abs(right.trace))
    return width / max(2.0 - fmax, margin_floor)


def adaptive_amplitude_sweep(
    m: int,
    n: int,
    P: float,
    theta0_max: float,
    budget: int,
    *,
    theta0_min: float | None = None,
    integrator: IntegratorConfig = IntegratorConfig(),
    tol_margin: float = DEFAULT_TOL_MARGIN,
    jobs: int = 1,
) -> list[AtlasCell]:
    """Amplitude sweep with a fixed cell budget, concentrated near the
    stability boundary.

    Instability tongues can be orders of magnitude narrower than the
    sweep range, so a uniform grid with an affordable point count steps
    straight over them; |trace| approaches 2 on a much wider shoulder
    around each tongue, though, and that shoulder is what a cheap grid
    can see.  The budget is split: half on a uniform backbone, the rest
    spent one cell at a time bisecting whichever interval is most likely
    to hide a verdict change.  An interval between two stable cells is
    scored width / (2 - max |trace|) (floored at tol_margin), so nearly
    critical shoulders are resolved exponentially finer than quiet
    regions; an interval that already brackets a Stable/Unstable change
    gets a flat width-based score.  Cells come back sorted by theta0,
    and the result is deterministic and independent of jobs.
    """
    require_tol_margin(tol_margin)
    require_count("budget", budget, 4)
    require_positive_finite("theta0_max", theta0_max)
    backbone = budget // 2
    if theta0_min is None:
        theta0_min = theta0_max / backbone
    if not 0.0 < theta0_min < theta0_max:
        raise DomainError("need 0 < theta0_min < theta0_max")

    grid = [theta0_min + i * (theta0_max - theta0_min) / (backbone - 1)
            for i in range(backbone)]
    grid[-1] = theta0_max
    spec = SweepSpec(P=P, modes=[(int(m), int(n))], theta0_grid=grid,
                     integrator=integrator, tol_margin=tol_margin)
    params = ModeParams(k=int(m), P=P)
    cells = sweep(spec, jobs)

    heap: list[tuple[float, float, int, int]] = []

    def push(i: int, j: int) -> None:
        score = _interval_score(cells[i], cells[j], tol_margin)
        if score is not None:
            heapq.heappush(heap, (-score, cells[i].theta0, i, j))

    for i in range(backbone - 1):
        push(i, i + 1)

    remaining = budget - backbone
    while remaining > 0 and heap:
        _, _, i, j = heapq.heappop(heap)
        mid = 0.5 * (cells[i].theta0 + cells[j].theta0)
        if not cells[i].theta0 < mid < cells[j].theta0:
            continue  # interval exhausted at float resolution
        cells.append(_cell(spec, (spec.modes[0], mid,
                                  energy_from_initial_amplitude(params, mid))))
        k = len(cells) - 1
        remaining -= 1
        push(i, k)
        push(k, j)
    return sorted(cells, key=lambda c: c.theta0)


def cells_csv(cells: Sequence[AtlasCell]) -> str:
    """CSV text with header CSV_HEADER, whose columns are AtlasCell fields,
    and one row per cell; identical sweeps give byte-identical text."""
    header = CSV_HEADER.split(",")
    return csv_text(header, map(attrgetter(*header), cells))


def verdict_runs(cells: Sequence[AtlasCell], verdict: Verdict | str) -> list[tuple[int, int]]:
    """Maximal index ranges [start, end] of consecutive cells with the
    given verdict; useful for counting instability windows."""
    want = verdict.value if isinstance(verdict, Verdict) else str(verdict)
    runs = []
    start = None
    for i, cell in enumerate(cells):
        if cell.verdict == want:
            if start is None:
                start = i
        elif start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(cells) - 1))
    return runs


def find_thresholds(
    m: int,
    n: int,
    P: float,
    energies: Sequence[float],
    refinement_tol: float = 1e-4,
    integrator: IntegratorConfig = IntegratorConfig(),
    tol_margin: float = DEFAULT_TOL_MARGIN,
) -> list[float]:
    """Transition energies between Stable and Unstable runs on the grid.

    trace M(E) is continuous in E, so each adjacent Stable/Unstable pair
    brackets a root of |trace| - 2; Brent's method finds it within
    refinement_tol / 2 relative to the energy scale, starting from the grid
    cells' own values.  A Marginal grid verdict is already the transition
    locus and is returned as such.
    """
    from scipy.optimize import brentq

    energies = [float(E) for E in energies]
    if len(energies) < 2:
        raise DomainError("threshold search needs at least two grid energies")
    require_positive_finite("refinement_tol", refinement_tol)
    spec = SweepSpec(P=P, modes=[(m, n)], energy_grid=energies,
                     integrator=integrator, tol_margin=tol_margin)
    cells = {E: _verdict(spec, (m, n), E) for E in energies}

    def excess(E: float) -> float:
        result = cells[E] if E in cells else _verdict(spec, (m, n), E)
        return abs(result.trace) - 2.0

    verdicts = [cells[E].verdict for E in energies]
    thresholds = []
    for i in range(len(energies) - 1):
        lo_v, hi_v = verdicts[i], verdicts[i + 1]
        if lo_v is Verdict.MARGINAL:
            thresholds.append(energies[i])
            continue
        if hi_v is Verdict.MARGINAL or lo_v is hi_v:
            continue
        lo, hi = energies[i], energies[i + 1]
        xtol = 0.5 * refinement_tol * max(abs(lo), abs(hi), refinement_tol)
        thresholds.append(brentq(excess, lo, hi, xtol=xtol))
    if verdicts[-1] is Verdict.MARGINAL:
        thresholds.append(energies[-1])
    return thresholds
