"""Stationary-profile catalog: counts, amplitudes, energies, Morse indices."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from beammodes import stationary
from beammodes import (
    DomainError,
    StationarySolution,
    residual_check,
    stationary_catalog,
)

GRID = np.linspace(0.0, math.pi, 301)


class TestCatalogP5:
    """P = 5 lies in (2^2, 3^2], so flat state + two mode pairs."""

    def setup_method(self):
        self.catalog = stationary_catalog(5.0)

    def test_count_and_order(self):
        assert len(self.catalog) == 5
        assert [s.j for s in self.catalog] == [0, 1, 1, 2, 2]
        assert [s.sign for s in self.catalog] == [0, 1, -1, 1, -1]

    def test_amplitudes(self):
        by_mode = {s.j: s.amplitude for s in self.catalog if s.j > 0}
        assert by_mode[1] == pytest.approx(2.0, rel=1e-15)           # sqrt(4)/1
        assert by_mode[2] == pytest.approx(0.5, rel=1e-15)           # sqrt(1)/2

    def test_energies(self):
        flat = self.catalog[0]
        assert flat.energy == 0.0
        by_mode = {s.j: s.energy for s in self.catalog if s.j > 0}
        assert by_mode[1] == pytest.approx(-2.0 * math.pi, rel=1e-15)
        assert by_mode[2] == pytest.approx(-math.pi / 8.0, rel=1e-15)

    def test_morse_indices(self):
        assert self.catalog[0].morse_index == 2
        by_mode = {s.j: s.morse_index for s in self.catalog if s.j > 0}
        assert by_mode[1] == 0
        assert by_mode[2] == 1

    def test_pair_profiles_are_opposite(self):
        plus, minus = self.catalog[1], self.catalog[2]
        np.testing.assert_allclose(plus.profile(GRID), -minus.profile(GRID),
                                   atol=0.0)

    def test_residuals_vanish(self):
        for sol in self.catalog:
            assert residual_check(sol, 5.0, GRID) < 1e-10

    def test_perturbed_profile_fails_residual(self):
        for sol in self.catalog[1:]:
            assert residual_check(replace(sol, amplitude=1.01 * sol.amplitude), 5.0, GRID) > 1e-3

    def test_energy_ordering_matches_morse(self):
        # deeper wells are lower-index critical points
        by_mode = {s.j: s for s in self.catalog if s.j > 0}
        assert by_mode[1].energy < by_mode[2].energy < self.catalog[0].energy


class TestCatalogAcrossLoads:
    def test_below_first_buckling_load(self):
        catalog = stationary_catalog(0.5)
        assert len(catalog) == 1
        assert catalog[0].j == 0
        assert catalog[0].morse_index == 0

    def test_boundary_load_excludes_degenerate_mode(self):
        # at P = 4 the second mode has zero amplitude and is not a
        # separate profile; only the first pair survives
        catalog = stationary_catalog(4.0)
        assert len(catalog) == 3
        assert catalog[0].morse_index == 1
        assert catalog[1].amplitude == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_just_above_boundary(self):
        assert len(stationary_catalog(4.0 + 1e-9)) == 5

    def test_count_grows_with_load(self):
        for P, count in [(1.0, 1), (1.5, 3), (9.0, 5), (9.1, 7), (26.0, 11)]:
            assert len(stationary_catalog(P)) == count, P

    def test_rejects_nonpositive_load(self):
        for P in (0.0, -3.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                stationary_catalog(P)

    def test_count_at_and_next_to_squares(self):
        """k is the largest j with j^2 < P, also one ulp either side of a
        square and for loads far above the float sqrt's exact range."""
        for j in [*range(1, 60), 94906265, 2**40]:
            square = float(j * j)
            for P, want in [(math.nextafter(square, 0.0), j - 1), (square, j - 1),
                            (math.nextafter(square, math.inf), j)]:
                assert stationary._mode_count(P) == want, (j, P)
        assert stationary._mode_count(5e-324) == 0

    def test_huge_load_fails_fast(self):
        # P = 1e18 has about 1e9 mode pairs; the cap refuses before building
        with pytest.raises(DomainError, match="at most"):
            stationary_catalog(1e18)

    def test_mode_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(stationary, "MAX_STATIONARY_MODES", 3)
        assert len(stationary_catalog(16.0)) == 7           # k = 3, at the cap
        with pytest.raises(DomainError, match="at most 3"):
            stationary_catalog(math.nextafter(16.0, math.inf))   # k = 4


class TestProfileEvaluation:
    def test_profile_values(self):
        sol = stationary_catalog(5.0)[1]     # +mode-1, amplitude 2
        x = np.array([0.0, math.pi / 2.0, math.pi])
        np.testing.assert_allclose(sol.profile(x), [0.0, 2.0, 0.0], atol=1e-15)

    def test_flat_profile_is_zero(self):
        sol = stationary_catalog(5.0)[0]
        assert np.all(sol.profile(GRID) == 0.0)

    def test_hinged_ends(self):
        for sol in stationary_catalog(26.0):
            ends = sol.profile(np.array([0.0, math.pi]))
            np.testing.assert_allclose(ends, 0.0, atol=1e-12)

    def test_scalar_input_becomes_array(self):
        sol = stationary_catalog(5.0)[3]     # +mode-2, amplitude 1/2
        value = sol.profile(np.array(math.pi / 4.0))
        assert value == pytest.approx(0.5, rel=1e-15)

    def test_to_dict_json(self):
        data = stationary_catalog(5.0)[1].to_dict()
        clone = StationarySolution(**json.loads(json.dumps(data)))
        assert clone == stationary_catalog(5.0)[1]


class TestResidual:
    def test_empty_grid_rejected(self):
        sol = stationary_catalog(5.0)[1]
        with pytest.raises(DomainError):
            residual_check(sol, 5.0, np.array([]))

    def test_wrong_load_fails(self):
        sol = stationary_catalog(5.0)[1]
        assert residual_check(sol, 6.0, GRID) > 1e-3

    def test_residual_scale(self):
        # 1% amplitude error on mode 1 at P = 5 shifts the nonlinear
        # coefficient by about 0.08, so the residual is order 0.1
        sol = stationary_catalog(5.0)[1]
        sol = replace(sol, amplitude=1.01 * sol.amplitude)
        assert 1e-2 < residual_check(sol, 5.0, GRID) < 1.0
