"""Cost-sweep engine tests (the Figure 4 machinery)."""

import numpy as np
import pytest

from repro.cost import PAPER_FIGURE4_MODEL, DEFAULT_GENERALIZED_MODEL
from repro.errors import DomainError
from repro.optimize import SweepResult, sd_grid, sd_sweep, sd_sweep_generalized, volume_sweep

FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5000,
             yield_fraction=0.4, cost_per_cm2=8.0)
FIG4B = dict(n_transistors=1e7, feature_um=0.18, n_wafers=50_000,
             yield_fraction=0.9, cost_per_cm2=8.0)


class TestSdGrid:
    def test_starts_above_bound(self):
        grid = sd_grid(100.0)
        assert grid[0] > 100.0

    def test_reaches_max(self):
        grid = sd_grid(100.0, sd_max=1000.0)
        assert grid[-1] == pytest.approx(1000.0)

    def test_geometric_spacing_resolves_left_wall(self):
        grid = sd_grid(100.0, n=100)
        # More than a third of the points in the first tenth of the range.
        frac = np.mean(grid < 100 + 0.1 * (grid[-1] - 100))
        assert frac > 0.33

    def test_invalid_max_raises(self):
        with pytest.raises(DomainError):
            sd_grid(100.0, sd_max=100.0)

    def test_n_validated(self):
        with pytest.raises(DomainError):
            sd_grid(100.0, n=1)


class TestDefaultGrids:
    """Default grids are built once; every call gets its own array."""

    @staticmethod
    def _check(grid, expected):
        first, second = grid(), grid()
        np.testing.assert_array_equal(first, expected)
        np.testing.assert_array_equal(second, expected)
        assert not np.shares_memory(first, second)
        assert first.flags.writeable and second.flags.writeable
        first[:] = -1.0  # a caller's writes never reach the next call
        np.testing.assert_array_equal(grid(), expected)

    def test_sd_grid(self):
        self._check(lambda: sd_grid(100.0),
                    100.0 + np.geomspace(5.0, 900.0, 400))

    def test_sd_sweep_default(self):
        self._check(lambda: sd_sweep(PAPER_FIGURE4_MODEL, **FIG4A).x,
                    100.0 + np.geomspace(5.0, 900.0, 400))

    def test_volume_sweep_default(self):
        point = dict(FIG4A, sd=300.0)
        point.pop("n_wafers")
        self._check(lambda: volume_sweep(PAPER_FIGURE4_MODEL, **point).x,
                    np.geomspace(100, 1e6, 200))

    def test_grid_arguments_keep_their_types(self):
        np.testing.assert_array_equal(
            sd_grid(100, sd_max=np.float64(1000.0), n=np.int64(400), margin=5),
            sd_grid(100.0))
        with pytest.raises(TypeError):
            sd_grid(100.0, n=400.5)


class TestSdSweep:
    def test_figure4a_u_curve(self):
        sweep = sd_sweep(PAPER_FIGURE4_MODEL, **FIG4A)
        assert sweep.is_interior_minimum()
        assert 200 < sweep.x_opt < 500

    def test_figure4b_optimum_lower(self):
        a = sd_sweep(PAPER_FIGURE4_MODEL, **FIG4A)
        b = sd_sweep(PAPER_FIGURE4_MODEL, **FIG4B)
        assert b.x_opt < a.x_opt

    def test_meta_records_operating_point(self):
        sweep = sd_sweep(PAPER_FIGURE4_MODEL, **FIG4A)
        assert sweep.meta["n_wafers"] == 5000

    def test_custom_grid_respected(self):
        grid = np.array([150.0, 300.0, 600.0])
        sweep = sd_sweep(PAPER_FIGURE4_MODEL, sd_values=grid, **FIG4A)
        np.testing.assert_array_equal(sweep.x, grid)

    def test_cost_at_interpolates(self):
        sweep = sd_sweep(PAPER_FIGURE4_MODEL, **FIG4A)
        mid = 0.5 * (sweep.x[10] + sweep.x[11])
        c = sweep.cost_at(mid)
        assert min(sweep.cost[10], sweep.cost[11]) <= c <= max(sweep.cost[10], sweep.cost[11])

    def test_cost_at_outside_range_raises(self):
        sweep = sd_sweep(PAPER_FIGURE4_MODEL, **FIG4A)
        with pytest.raises(DomainError):
            sweep.cost_at(1e9)

    def test_penalty_vs_optimum_zero_at_optimum(self):
        sweep = sd_sweep(PAPER_FIGURE4_MODEL, **FIG4A)
        assert sweep.penalty_vs_optimum(sweep.x_opt) == pytest.approx(0.0, abs=1e-9)

    def test_penalty_positive_off_optimum(self):
        sweep = sd_sweep(PAPER_FIGURE4_MODEL, **FIG4A)
        assert sweep.penalty_vs_optimum(900.0) > 0


class TestSweepResultValidation:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DomainError):
            SweepResult("sd", np.array([1.0, 2.0]), np.array([1.0]), {})

    def test_single_point_rejected(self):
        with pytest.raises(DomainError):
            SweepResult("sd", np.array([1.0]), np.array([1.0]), {})


class TestSweepResultArgmin:
    """``argmin`` equals ``np.nanargmin``: the first minimum on ties."""

    @staticmethod
    def make(cost):
        cost = np.asarray(cost, dtype=float)
        return SweepResult("sd", np.arange(cost.size, dtype=float), cost, {})

    @pytest.mark.parametrize("cost", [
        [3.0, 1.0, 2.0, 1.0, 5.0],             # tie: first minimum wins
        [np.nan, 4.0, 2.0, 2.0, 3.0],          # NaN at index 0
        [4.0, 2.0, np.nan, 1.0, 1.0],          # NaN elsewhere, tie after it
        [np.nan, np.nan, 7.0, np.nan, 7.0],    # NaN on both sides of a tie
    ])
    def test_matches_nanargmin(self, cost):
        result = self.make(cost)
        assert result.argmin == int(np.nanargmin(result.cost))
        assert result.x_opt == result.x[result.argmin]
        assert result.cost_opt == np.nanmin(result.cost)

    def test_all_nan_raises(self):
        result = self.make([np.nan, np.nan, np.nan])
        with pytest.raises(DomainError, match="every grid point"):
            result.argmin

    def test_computed_once(self):
        result = self.make([3.0, 1.0, 2.0])
        assert result.argmin == 1
        assert result.__dict__["argmin"] == 1


class TestGeneralizedSweep:
    def test_u_curve(self):
        sweep = sd_sweep_generalized(DEFAULT_GENERALIZED_MODEL, 1e7, 0.18, 5000)
        assert sweep.is_interior_minimum()

    def test_meta_marks_model(self):
        sweep = sd_sweep_generalized(DEFAULT_GENERALIZED_MODEL, 1e7, 0.18, 5000)
        assert sweep.meta["model"] == "generalized"


class TestVolumeSweep:
    def test_monotone_decreasing(self):
        sweep = volume_sweep(PAPER_FIGURE4_MODEL, 300, 1e7, 0.18, 0.8, 8.0)
        assert np.all(np.diff(sweep.cost) < 0)

    def test_approaches_eq3_floor(self):
        from repro.cost import transistor_cost
        sweep = volume_sweep(PAPER_FIGURE4_MODEL, 300, 1e7, 0.18, 0.8, 8.0,
                             n_wafers_values=np.geomspace(1e2, 1e9, 50))
        floor = transistor_cost(8.0, 0.18, 300, 0.8)
        assert sweep.cost[-1] == pytest.approx(floor, rel=1e-3)
        assert sweep.cost[0] > 2 * floor
