"""Atlas sweeps: grids of verdicts, CSV output, thresholds, adaptive budget."""

import concurrent.futures
import math

import numpy as np
import pytest

import beammodes.hill
import beammodes.regime
from beammodes import ModeParams, atlas, classify_stability
from beammodes.atlas import (CSV_HEADER, AtlasCell, SweepSpec, VerdictSource,
                             adaptive_amplitude_sweep, cells_csv, find_thresholds,
                             sweep, verdict_runs)
from beammodes.duffing import energy_from_initial_amplitude
from beammodes.errors import DomainError, NumericalQualityError, csv_text
from beammodes.hill import Verdict

SMALL = SweepSpec(P=0.0, modes=[(2, 1), (1, 2)], theta0_grid=[0.3, 0.6, 0.9])
# enough cells for two pool workers at MIN_CELLS_PER_WORKER
WIDE = SweepSpec(P=0.0, modes=[(2, 1), (1, 2)],
                 theta0_grid=[0.3 + 0.02 * i for i in range(atlas.MIN_CELLS_PER_WORKER)])


def synthetic(theta0, verdict, quality="ok", trace=0.0):
    return AtlasCell(gamma=4.0, m=1, n=2, P=0.0, theta0=theta0, E=theta0,
                     trace=trace, verdict=verdict, quality=quality)


class TestSweepSpec:
    def test_requires_exactly_one_grid(self):
        with pytest.raises(DomainError):
            SweepSpec(P=0.0, modes=[(1, 2)])
        with pytest.raises(DomainError):
            SweepSpec(P=0.0, modes=[(1, 2)], theta0_grid=[1.0],
                      energy_grid=[1.0])

    def test_grid_must_increase(self):
        with pytest.raises(DomainError):
            SweepSpec(P=0.0, modes=[(1, 2)], theta0_grid=[])
        with pytest.raises(DomainError):
            SweepSpec(P=0.0, modes=[(1, 2)], theta0_grid=[1.0, 1.0])
        with pytest.raises(DomainError):
            SweepSpec(P=0.0, modes=[(1, 2)], energy_grid=[2.0, 1.0])
        # NaN compares false both ways, so it used to pass the order check
        for grid in ([math.nan, 1.0, 2.0], [0.5, math.nan], [1.0, math.inf]):
            with pytest.raises(DomainError, match="finite"):
                SweepSpec(P=0.0, modes=[(1, 2)], theta0_grid=grid)

    @pytest.mark.parametrize("margin", [math.nan, math.inf, -1.0, 2.0])
    def test_margin_checked_up_front(self, margin):
        with pytest.raises(DomainError, match="tol_margin"):
            SweepSpec(P=0.0, modes=[(1, 2)], theta0_grid=[1.0], tol_margin=margin)
        with pytest.raises(DomainError, match="tol_margin"):
            adaptive_amplitude_sweep(1, 2, 0.0, 5.0, 40, tol_margin=margin)
        with pytest.raises(DomainError, match="tol_margin"):
            find_thresholds(2, 1, 3.0, [4.0, 8.0], tol_margin=margin)

    def test_modes_required(self):
        with pytest.raises(DomainError):
            SweepSpec(P=0.0, modes=[], theta0_grid=[1.0])

    @pytest.mark.parametrize("pair,name", [((0, 2), "m"), ((1, -1), "n"),
                                           ((1.5, 2), "m")])
    def test_pair_entries_checked_before_any_cell(self, monkeypatch, pair, name):
        def refuse(*args, **kwargs):
            raise AssertionError("a cell was integrated")

        monkeypatch.setattr(beammodes.hill, "integrate", refuse)
        monkeypatch.setattr(beammodes.hill, "_magnus_pass", refuse)
        monkeypatch.setattr(beammodes.regime, "find_zero_crossing", refuse)
        for grid in ({"theta0_grid": [1.0]}, {"energy_grid": [1.0]},
                     {"energy_grid": [1.0],
                      "verdict_source": VerdictSource.CAZENAVE_LIMIT}):
            with pytest.raises(DomainError, match=f"^{name} must be a positive integer"):
                sweep(SweepSpec(P=0.0, modes=[(1, 2), pair], **grid))

    def test_an_underflowing_gamma_is_refused_up_front(self):
        # gamma = 1e-400 rounds to the float 0, which no limit cell can take
        with pytest.raises(DomainError, match=r"^gamma = n\^2 / m\^2"):
            SweepSpec(P=0.0, modes=[(2, 3), (10**200, 1)], energy_grid=[1.0],
                      verdict_source=VerdictSource.CAZENAVE_LIMIT)

    def test_equal_modes_only_under_the_limit_source(self):
        # m = n has no Hill problem, but gamma = 1 is a valid limit ratio
        with pytest.raises(DomainError, match="distinct"):
            SweepSpec(P=0.0, modes=[(1, 2), (2, 2)], theta0_grid=[1.0])
        spec = SweepSpec(P=0.0, modes=[(2, 2)], energy_grid=[1.0],
                         verdict_source=VerdictSource.CAZENAVE_LIMIT)
        assert [c.gamma for c in sweep(spec)] == [1.0]

    def test_bare_gamma_needs_limit_source(self):
        with pytest.raises(DomainError):
            SweepSpec(P=0.0, modes=[2.25], theta0_grid=[1.0])
        SweepSpec(P=0.0, modes=[2.25], theta0_grid=[1.0],
                  verdict_source=VerdictSource.CAZENAVE_LIMIT)


class TestSweep:
    def test_cell_fields(self):
        cells = sweep(SMALL)
        assert len(cells) == 6
        first = cells[0]
        assert (first.m, first.n) == (2, 1)
        assert first.gamma == 0.25
        assert first.theta0 == 0.3
        assert first.E == energy_from_initial_amplitude(
            ModeParams(k=2, P=0.0), 0.3)
        assert first.ok
        assert first.verdict == Verdict.STABLE.value
        # pairs are the outer loop
        assert [c.m for c in cells] == [2, 2, 2, 1, 1, 1]

    def test_energy_grid_leaves_theta_unset(self):
        spec = SweepSpec(P=0.0, modes=[(2, 1)], energy_grid=[0.5, 1.0])
        cells = sweep(spec)
        assert all(math.isnan(c.theta0) for c in cells)
        assert [c.E for c in cells] == [0.5, 1.0]

    def test_worker_count_does_not_change_output(self):
        assert sweep(WIDE, jobs=1) == sweep(WIDE, jobs=2)

    @pytest.mark.parametrize("spec", [
        # the (1, 5) row at P = 80, whose deep cells fail the determinant gate
        SweepSpec(P=80.0, modes=[(1, 5)],
                  energy_grid=[-1560.25 * (1.0 - (i + 0.5) / 30) for i in range(30)]),
        # gate 10's backbone
        SweepSpec(P=0.0, modes=[(3, 7)],
                  theta0_grid=[0.25 + i * (50.0 - 0.25) / 199 for i in range(199)] + [50.0]),
        SweepSpec(P=2.0, modes=[(2, 1), (1, 2)], energy_grid=[-0.2, -0.1, 1.0, 30.0]),
    ], ids=["row80", "gate10-backbone", "pairs-with-failures"])
    def test_batched_sweep_equals_per_cell(self, spec):
        # one point at a time, each cell is one classify_stability call
        singles = [cell for point in atlas._points(spec) for cell in atlas._cells(spec, [point])]
        assert cells_csv(sweep(spec)) == cells_csv(singles)

    def test_jobs_validated(self, monkeypatch):
        with pytest.raises(DomainError):
            sweep(SMALL, jobs=0)

        def refuse(spec, points):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(atlas, "_verdicts", refuse)
        for jobs in (math.nan, 1.5):
            with pytest.raises(DomainError, match="jobs"):
                sweep(SMALL, jobs=jobs)
            with pytest.raises(DomainError, match="jobs"):
                adaptive_amplitude_sweep(1, 2, 0.0, 5.0, 4, jobs=jobs)

    def test_workers_clamped_to_cells_and_cores(self, monkeypatch):
        """The pool starts every worker up front; it gets no more than
        there are cores, at least MIN_CELLS_PER_WORKER cells each, and no
        pool runs for fewer than two workers."""
        pools = []

        class Recorder:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(atlas.os, "cpu_count", lambda: 2)
        one = SweepSpec(P=0.0, modes=[(2, 1)], theta0_grid=[0.3])
        assert sweep(one, jobs=64) == sweep(one)
        assert sweep(SMALL, jobs=64) == sweep(SMALL)
        adaptive_amplitude_sweep(1, 2, 0.0, 5.0, 8, jobs=64)
        assert pools == []
        assert len(sweep(WIDE, jobs=64)) == 2 * atlas.MIN_CELLS_PER_WORKER
        assert pools == [2]

    def test_failed_cell_is_flagged_not_fatal(self):
        # E = -0.1 lies in mode 1's well at P = 2 but below mode 2's floor
        spec = SweepSpec(P=2.0, modes=[(2, 1), (1, 2)], energy_grid=[-0.1])
        cells = sweep(spec)
        bad, good = cells
        assert not bad.ok
        assert bad.quality.startswith("error:DomainError")
        assert bad.verdict == "none"
        assert math.isnan(bad.trace)
        assert good.ok

    def test_limit_source_with_bare_gamma(self):
        spec = SweepSpec(P=0.0, modes=[2.25, 4.0], energy_grid=[1.0],
                         verdict_source=VerdictSource.CAZENAVE_LIMIT)
        cells = sweep(spec)
        assert [c.verdict for c in cells] == [Verdict.UNSTABLE.value,
                                              Verdict.STABLE.value]
        assert all(c.m == 0 and c.n == 0 for c in cells)
        assert [c.gamma for c in cells] == [2.25, 4.0]

    def test_limit_cell_past_the_gamma_bound_records_its_error(self):
        spec = SweepSpec(P=0.0, modes=[2.25, 1e7], energy_grid=[1.0],
                         verdict_source=VerdictSource.CAZENAVE_LIMIT)
        good, bad = sweep(spec)
        assert good.ok and good.verdict == Verdict.UNSTABLE.value
        assert bad.quality == "error:DomainError: gamma must be at most 1e+06, got 10000000.0"
        assert bad.verdict == "none" and math.isnan(bad.trace)

    def test_limit_sweep_classifies_each_gamma_once(self, monkeypatch):
        # the grid only echoes, and (1, 2), (2, 4) and 4.0 share gamma = 4
        spec = SweepSpec(P=0.0, modes=[(1, 2), (2, 4), 4.0, (1, 3), 2.25],
                         energy_grid=[float(E) for E in range(1, 21)],
                         verdict_source=VerdictSource.CAZENAVE_LIMIT)
        points = atlas._points(spec)
        singles = [cell for point in points for cell in atlas._cells(spec, [point])]
        calls = []
        classify = atlas.cazenave_limit_classify

        def counted(gammas, **kwargs):
            calls.append(gammas)
            return classify(gammas, **kwargs)

        monkeypatch.setattr(atlas, "cazenave_limit_classify", counted)
        cells = sweep(spec)
        assert calls == [[4.0, 9.0, 2.25]]
        assert cells_csv(cells) == cells_csv(singles)


class TestOneEvaluator:
    """Every atlas verdict, in sweeps, refinement and threshold search,
    comes from atlas._verdicts."""

    QUALITY = "error:NumericalQualityError: sentinel"

    @pytest.fixture
    def sentinel(self, monkeypatch):
        def refuse(spec, points):
            return [NumericalQualityError("sentinel") for _ in points]

        monkeypatch.setattr(atlas, "_verdicts", refuse)

    def test_sweeps_record_it(self, sentinel):
        limit = SweepSpec(P=0.0, modes=[2.25, (1, 2)], energy_grid=[1.0],
                          verdict_source=VerdictSource.CAZENAVE_LIMIT)
        for spec in (SMALL, limit):
            cells = sweep(spec)
            assert cells and all(c.quality == self.QUALITY for c in cells)

    def test_adaptive_sweep_records_it(self, sentinel):
        cells = adaptive_amplitude_sweep(1, 2, 0.0, 5.0, 8)
        assert cells and all(c.quality == self.QUALITY for c in cells)

    def test_find_thresholds_raises_it(self, sentinel):
        with pytest.raises(NumericalQualityError, match="sentinel"):
            find_thresholds(2, 1, 3.0, [4.0, 8.0])

    def test_refinement_cells_use_it(self, monkeypatch):
        calls = []
        verdicts = atlas._verdicts

        def counted(spec, points):
            calls.extend(E for _, _, E in points)
            return verdicts(spec, points)

        monkeypatch.setattr(atlas, "_verdicts", counted)
        cells = adaptive_amplitude_sweep(1, 2, 0.0, 5.0, 8)
        assert len(cells) == 8
        assert sorted(calls) == sorted(c.E for c in cells)


class TestCsv:
    def test_header_and_line_count(self):
        cells = sweep(SMALL)
        lines = cells_csv(cells).splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(cells) + 1

    def test_floats_round_trip(self):
        cells = sweep(SMALL)
        for cell, line in zip(cells, cells_csv(cells).splitlines()[1:]):
            fields = line.split(",")
            assert float(fields[0]) == cell.gamma
            assert float(fields[4]) == cell.theta0
            assert float(fields[5]) == cell.E
            assert float(fields[6]) == cell.trace
            assert fields[7] == cell.verdict

    def test_output_is_deterministic(self):
        assert cells_csv(sweep(SMALL)) == cells_csv(sweep(SMALL, jobs=2))

    def test_integer_load_prints_as_float(self):
        spec = SweepSpec(P=0, modes=[(1, 2)], theta0_grid=[0.5])
        assert cells_csv(sweep(spec)).splitlines()[1].split(",")[3] == "0.0"

    def test_free_text_field_is_quoted(self):
        # the text csv.writer gave this cell when it wrote the sweep directly
        cell = synthetic(0.5, "none", trace=math.nan,
                         quality='error:DomainError: mode k=1, P=1.0: say "no"')
        assert cells_csv([cell]) == CSV_HEADER + "\n" + (
            '4.0,1,2,0.0,0.5,0.5,nan,none,'
            '"error:DomainError: mode k=1, P=1.0: say ""no"""\n')

    def test_csv_text_quotes_only_where_needed(self):
        rows = [(np.float64(0.1), np.int64(3), "a, b"), (1e-300, 0, "plain")]
        assert csv_text(("x", "k", "note"), rows) == \
            'x,k,note\n0.1,3,"a, b"\n1e-300,0,plain\n'


class TestVerdictRuns:
    def test_runs_found(self):
        cells = [synthetic(float(i), v) for i, v in enumerate(
            ["stable", "unstable", "unstable", "stable", "unstable"])]
        assert verdict_runs(cells, Verdict.UNSTABLE) == [(1, 2), (4, 4)]
        assert verdict_runs(cells, "stable") == [(0, 0), (3, 3)]

    def test_run_reaching_the_end(self):
        cells = [synthetic(0.0, "unstable"), synthetic(1.0, "unstable")]
        assert verdict_runs(cells, Verdict.UNSTABLE) == [(0, 1)]

    def test_empty_input(self):
        assert verdict_runs([], Verdict.UNSTABLE) == []


class TestFindThresholds:
    def test_transition_located(self):
        # (2, 1) at P = 3: unstable up through E ~ 6.5, stable after
        thresholds = find_thresholds(2, 1, 3.0, [4.0, 8.0])
        assert len(thresholds) == 1
        E = thresholds[0]
        assert 6.0 < E < 7.0
        below = classify_stability(2, 1, 3.0, E - 0.1).verdict
        above = classify_stability(2, 1, 3.0, E + 0.1).verdict
        assert below is Verdict.UNSTABLE
        assert above is Verdict.STABLE

    def test_no_transition_no_thresholds(self):
        assert find_thresholds(2, 1, 0.0, [0.5, 1.0]) == []

    def test_marginal_grid_point_is_the_threshold(self):
        bottom = ModeParams(k=1, P=7.0).floor_energy
        E0 = bottom * (1.0 - 1e-4)
        thresholds = find_thresholds(1, 2, 7.0, [E0, -5.0])
        assert thresholds == [E0]

    def test_validation(self):
        with pytest.raises(DomainError):
            find_thresholds(2, 1, 3.0, [4.0])
        with pytest.raises(DomainError):
            find_thresholds(2, 1, 3.0, [8.0, 4.0])
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="refinement_tol"):
                find_thresholds(2, 1, 3.0, [4.0, 8.0], refinement_tol=tol)
        for grid in ([math.nan, 8.0], [4.0, math.inf], [4.0, math.nan, 8.0]):
            with pytest.raises(DomainError, match="finite"):
                find_thresholds(2, 1, 3.0, grid)

    def test_cells_per_threshold(self, monkeypatch):
        """Brent's method on |trace| - 2 takes at most 10 cells here, the
        two grid cells included; bisecting the verdict took 15."""
        calls = []
        verdicts = atlas._verdicts

        def counted(spec, points):
            calls.extend(E for _, _, E in points)
            return verdicts(spec, points)

        monkeypatch.setattr(atlas, "_verdicts", counted)
        assert len(find_thresholds(2, 1, 3.0, [4.0, 8.0])) == 1
        assert len(calls) <= 10
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("m,n,P,lo,hi", [
        (2, 1, 3.0, 4.0, 8.0),
        (1, 2, 6.0, 2.0, 16.0),
        (1, 2, 6.0, -6.0, -4.0),
        (2, 1, 6.0, 4.0, 64.0),
    ])
    def test_threshold_within_tolerance_of_trace_root(self, m, n, P, lo, hi):
        from scipy.optimize import brentq

        def excess(E):
            return abs(classify_stability(m, n, P, E).monodromy.trace) - 2.0

        root = brentq(excess, lo, hi, xtol=1e-15)
        scale = max(abs(lo), abs(hi))
        for tol in (1e-4, 1e-6, 1e-8):
            (found,) = find_thresholds(m, n, P, [lo, hi], refinement_tol=tol)
            assert abs(found - root) <= 0.5 * tol * scale, tol


class TestAdaptiveSweep:
    def test_validation(self):
        with pytest.raises(DomainError):
            adaptive_amplitude_sweep(1, 2, 0.0, 5.0, 3)
        with pytest.raises(DomainError):
            adaptive_amplitude_sweep(1, 2, 0.0, 0.0, 40)
        with pytest.raises(DomainError):
            adaptive_amplitude_sweep(1, 2, 0.0, 5.0, 40, theta0_min=5.0)
        for theta0_max in (math.nan, math.inf):
            with pytest.raises(DomainError):
                adaptive_amplitude_sweep(1, 2, 0.0, theta0_max, 40, theta0_min=1.0)

    def test_budget_spent_and_sorted(self):
        cells = adaptive_amplitude_sweep(1, 2, 0.0, 5.0, 40)
        assert len(cells) == 40
        thetas = [c.theta0 for c in cells]
        assert thetas == sorted(thetas)
        assert len(set(thetas)) == len(thetas)
        assert thetas[0] == pytest.approx(5.0 / 20)   # default backbone floor
        assert thetas[-1] == 5.0
        assert all(c.ok for c in cells)

    def test_finds_instability_pocket(self):
        # (1, 2) at P = 0 has an instability window near theta0 ~ 3.1
        # that a 20-point uniform grid can miss; the refinement finds it
        cells = adaptive_amplitude_sweep(1, 2, 0.0, 5.0, 40)
        runs = verdict_runs(cells, Verdict.UNSTABLE)
        assert len(runs) >= 1
        lo = cells[runs[0][0]].theta0
        hi = cells[runs[0][1]].theta0
        assert 2.5 < lo <= hi < 3.7

    def test_deterministic_and_jobs_independent(self):
        a = adaptive_amplitude_sweep(1, 2, 0.0, 5.0, 30)
        b = adaptive_amplitude_sweep(1, 2, 0.0, 5.0, 30)
        c = adaptive_amplitude_sweep(1, 2, 0.0, 5.0, 30, jobs=2)
        assert a == b == c

    def test_default_backbone_is_half_the_budget(self):
        # budget 12: a uniform backbone of 6 cells from 2.0 / 6 to 2.0
        cells = adaptive_amplitude_sweep(2, 1, 0.0, 2.0, 12)
        assert len(cells) == 12
        thetas = [c.theta0 for c in cells]
        lo = 2.0 / 6
        for i in range(6):
            want = lo + i * (2.0 - lo) / 5
            assert any(t == pytest.approx(want, rel=1e-12) for t in thetas), want

    def test_energy_consistent_with_amplitude(self):
        params = ModeParams(k=1, P=0.0)
        for cell in adaptive_amplitude_sweep(1, 2, 0.0, 4.0, 12):
            assert cell.E == pytest.approx(
                energy_from_initial_amplitude(params, cell.theta0), rel=1e-12)
