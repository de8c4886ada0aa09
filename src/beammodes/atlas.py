"""Stability atlases: grids of Floquet verdicts over amplitude or energy.

Every verdict comes from one cell evaluator: the (m, n) Hill monodromy at
one energy, or the large-energy limit of one gamma.  A sweep runs it over
a grid of initial amplitudes theta0 (or energies) at fixed load, one cell
per grid point, in deterministic row-major order (mode pairs outer, grid
inner).  The Hill cells of a sweep are one batch of the Magnus kernel
(hill.classify_batch), its limit cells one batch of their distinct gammas,
or one batch per chunk across worker processes; each cell's value is
independent of the others.  A failing cell records the failure in its
quality flag instead of aborting the sweep.  The adaptive amplitude sweep
adds cells to a uniform backbone sweep where a verdict change may hide, and
threshold finding solves |trace| = 2 between grid cells whose verdicts
differ; the cells those two add are one at a time.
"""

from __future__ import annotations

import functools
import heapq
import math
import os
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Sequence

from .duffing import ModeParams, energy_from_initial_amplitude
from .errors import (BeamModesError, DomainError, attempt, csv_text, require_count,
                     require_finite, require_mode_pair, require_positive_finite)
from .hill import (DEFAULT_TOL_MARGIN, Verdict, classify_batch, classify_stability,
                   require_tol_margin)
from .integrate import IntegratorConfig, brentq
from .regime import cazenave_limit_classify, classify_gamma

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
                if self.verdict_source is VerdictSource.MONODROMY:
                    require_mode_pair(m, n, self.P)
                else:                       # gamma = 1 is a valid limit ratio
                    classify_gamma(m, n)
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


def _verdicts(spec: SweepSpec, points: Sequence[tuple]) -> list:
    """The classified matrix of each cell at points = (entry, theta0, E): the
    (m, n) monodromy at energy E, or the large-energy limit of the entry's
    gamma, one batch of the distinct gammas (the grid only echoes); a cell
    that cannot be classified gives its BeamModesError in place of the
    result.  Every atlas verdict comes from here.  The Hill cells of several
    points are one hill.classify_batch run; a single point, as Brent's
    probes and the adaptive refinement ask for, is one classify_stability
    call.  The classifiers are looked up as module globals at call time."""
    if spec.verdict_source is VerdictSource.CAZENAVE_LIMIT:
        # keyed by repr, which keeps -0.0 apart from 0.0 as their errors do
        keys = [repr(_mode_fields(entry)[2]) for entry, _, _ in points]
        distinct = dict.fromkeys(keys)          # first-seen order
        limit = dict(zip(distinct, cazenave_limit_classify(
            [float(key) for key in distinct], tol_margin=spec.tol_margin)))
        return [limit[key] for key in keys]
    cells = [(*_mode_fields(entry)[:2], spec.P, E) for entry, _, E in points]
    if len(cells) == 1:
        reports = [attempt(classify_stability, *cells[0], config=spec.integrator,
                           tol_margin=spec.tol_margin)]
    else:
        reports = classify_batch(cells, spec.integrator, spec.tol_margin)
    return [r if isinstance(r, BeamModesError) else r.monodromy for r in reports]


def _raised(result):
    """The result of one cell of _verdicts, or its error raised."""
    if isinstance(result, BeamModesError):
        raise result
    return result


def _cells(spec: SweepSpec, points: Sequence[tuple]) -> list[AtlasCell]:
    """The cells at points = (entry, theta0, E); a failure is recorded in its
    cell's quality flag instead of raised."""
    cells = []
    for (entry, theta0, E), result in zip(points, _verdicts(spec, points)):
        m, n, gamma = _mode_fields(entry)
        if isinstance(result, BeamModesError):
            trace, verdict = math.nan, "none"
            quality = f"error:{type(result).__name__}: {result}"
        else:
            trace, verdict, quality = result.trace, result.verdict.value, "ok"
        cells.append(AtlasCell(gamma=gamma, m=m, n=n, P=float(spec.P), theta0=theta0,
                               E=E, trace=trace, verdict=verdict, quality=quality))
    return cells


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
# Serial against jobs=2 on 2 vCPUs, each side one batch per chunk, (3, 7) at
# P = 0 over energies geometric in [0.1, 1e4], medians of 7 runs with no
# floor: 0.004 / 0.012 s at 48 cells, 0.016-0.017 / 0.020-0.023 s at 200,
# 0.025-0.029 / 0.022-0.024 s at 300, 0.038-0.047 / 0.027-0.029 s at 400,
# 0.052-0.053 / 0.033-0.036 s at 600 and 0.090 / 0.052-0.057 s at 1000
# (about 0.09 ms a cell serially).
MIN_CELLS_PER_WORKER = 150


def sweep(spec: SweepSpec, jobs: int = 1) -> list[AtlasCell]:
    """Evaluate the sweep; the cell order (and every cell value) is
    independent of the worker count.

    The cells are one batch (see _verdicts), or one batch per chunk of a
    worker pool.  The pool starts every worker up front, so it gets no more
    workers than there are cores, and each gets at least
    MIN_CELLS_PER_WORKER cells; below two workers no pool runs at all.
    """
    require_count("jobs", jobs, 1)
    points = _points(spec)
    workers = min(jobs, os.cpu_count() or 1, len(points) // MIN_CELLS_PER_WORKER)
    if workers < 2:
        return _cells(spec, points)
    size = -(-len(points) // (4 * workers))
    chunks = [points[i:i + size] for i in range(0, len(points), size)]
    from concurrent.futures import ProcessPoolExecutor     # imports multiprocessing
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [cell for cells in pool.map(functools.partial(_cells, spec), chunks)
                for cell in cells]


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
        cells += _cells(spec, [(spec.modes[0], mid,
                                energy_from_initial_amplitude(params, mid))])
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
    energies = [float(E) for E in energies]
    if len(energies) < 2:
        raise DomainError("threshold search needs at least two grid energies")
    require_positive_finite("refinement_tol", refinement_tol)
    spec = SweepSpec(P=P, modes=[(m, n)], energy_grid=energies,
                     integrator=integrator, tol_margin=tol_margin)
    grid = _verdicts(spec, [((m, n), math.nan, E) for E in energies])
    cells = dict(zip(energies, map(_raised, grid)))

    def excess(E: float) -> float:
        result = cells[E] if E in cells else _raised(_verdicts(spec, [((m, n), math.nan, E)])[0])
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
