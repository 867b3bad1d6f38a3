"""Engine parity: batched evaluation must reproduce the scalar loops.

The reproduction contract of :mod:`repro.engine` is numerical and
behavioural identity with the per-point loops it replaced: same values
(to <=1e-12 relative) and the same diagnostics under MASK/COLLECT.
"""

import warnings

import numpy as np
import pytest

from repro.cost import (
    DEFAULT_GENERALIZED_MODEL,
    PAPER_FIGURE4_MODEL,
    TestCostModel,
    TotalCostModel,
)
from repro.data import DesignRegistry, load_itrs_1999
from repro.density.metrics import area_from_sd, decompression_index
from repro.engine import core as engine_core
from repro.engine import evaluate_grid
from repro.engine.kernels import (
    DesignObjectivesKernel,
    Eq4SdKernel,
    Eq4VolumeKernel,
    Eq7SdKernel,
)
from repro.errors import CollectedErrors, DomainError, ReproError
from repro.optimize import sd_grid
from repro.robust import ErrorPolicy

FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5_000,
             yield_fraction=0.4, cost_per_cm2=8.0)

_SD0 = PAPER_FIGURE4_MODEL.design_model.sd0

#: Real-data grids: Table-A1 logic densities and ITRS-implied densities.
TABLE_A1_SD = np.asarray(
    sorted(sd for sd in DesignRegistry.table_a1().sd_logic_values()
           if sd > _SD0), dtype=float)
ITRS_SD = np.asarray(
    sorted(node.implied_sd() for node in load_itrs_1999()), dtype=float)
GRIDS = {
    "table_a1": TABLE_A1_SD,
    "itrs": ITRS_SD,
    "figure4": sd_grid(_SD0, sd_max=1200.0, n=120),
}


def max_relative_error(values, reference):
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(np.asarray(values) - reference)
                        / np.abs(reference)))


def scalar_reference(kernel, grid):
    return np.array([kernel.point(float(x)) for x in grid], dtype=float).T


class TestBatchScalarParity:
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_eq4_matches_scalar(self, grid_name):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS[grid_name]
        evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                   equation="4", parameter="sd")
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12

    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_eq7_matches_scalar(self, grid_name):
        kernel = Eq7SdKernel(DEFAULT_GENERALIZED_MODEL, n_transistors=1e7,
                             feature_um=0.18, n_wafers=5_000)
        grid = GRIDS[grid_name]
        evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                   equation="7", parameter="sd")
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12

    def test_volume_kernel_matches_scalar(self):
        kernel = Eq4VolumeKernel(PAPER_FIGURE4_MODEL, sd=300.0,
                                 n_transistors=1e7, feature_um=0.18,
                                 yield_fraction=0.4, cost_per_cm2=8.0)
        grid = np.geomspace(1e2, 5e5, 80)
        evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                   equation="4", parameter="n_wafers")
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12

    def test_objectives_kernel_matches_scalar_rows(self):
        kernel = DesignObjectivesKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS["figure4"]
        evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                   equation="4", parameter="sd")
        assert evaluation.values.shape == (3, grid.size)
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12


class TestFusedObjectives:
    """``DesignObjectivesKernel.batch``'s fused pass against its three model calls."""

    MODELS = {
        "figure4": PAPER_FIGURE4_MODEL,
        "masks": TotalCostModel(utilization=0.7),
        "test-term": TotalCostModel(test_model=TestCostModel()),
    }

    @staticmethod
    def model_calls(kernel, grid):
        """The three model calls the fused pass stands for."""
        fixed = (kernel.n_transistors, kernel.feature_um, kernel.n_wafers,
                 kernel.yield_fraction, kernel.cost_per_cm2)
        return np.stack([
            area_from_sd(grid, kernel.n_transistors, kernel.feature_um),
            kernel.model.transistor_cost(grid, *fixed),
            kernel.model.design_model.cost(kernel.n_transistors, grid)])

    @pytest.mark.parametrize("cast", [float, int, np.float64],
                             ids=lambda c: c.__name__)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rows_equal_the_model_calls(self, name, cast):
        fixed = {k: cast(v) for k, v in FIG4A.items()
                 if k in ("n_transistors", "n_wafers")}
        kernel = DesignObjectivesKernel(self.MODELS[name], **dict(FIG4A, **fixed))
        grid = GRIDS["figure4"]
        np.testing.assert_array_equal(kernel.batch(grid),
                                      self.model_calls(kernel, grid))

    @pytest.mark.parametrize("grid, changes", [
        ([300.0, 50.0], {}),  # below s_d0
        ([300.0, 1e300], {}),  # eq. (6) power out of range
        ([300.0, 400.0], {"yield_fraction": 1.5}),
        ([300.0, 400.0], {"feature_um": 1e200}),
    ])
    def test_raises_what_the_model_calls_raise(self, grid, changes):
        kernel = DesignObjectivesKernel(PAPER_FIGURE4_MODEL, **dict(FIG4A, **changes))
        grid = np.asarray(grid)
        with pytest.raises(DomainError) as calls:
            self.model_calls(kernel, grid)
        with pytest.raises(DomainError) as fused:
            kernel.batch(grid)
        assert str(fused.value) == str(calls.value)


class TestVolumeSetUpOnce:
    """``Eq4VolumeKernel.batch``'s set-up-once pass against the model call."""

    MODELS = TestFusedObjectives.MODELS
    FIXED = dict(sd=300.0, n_transistors=1e7, feature_um=0.18,
                 yield_fraction=0.4, cost_per_cm2=8.0)
    #: Volumes each path must treat alike: tiny, huge, and invalid ones.
    VOLUMES = {
        "geometric": np.geomspace(1e2, 1e6, 200),
        "extremes": np.geomspace(1e-300, 1e300, 601),
        "subnormal": np.array([5e-324, 1e-310, 1.0]),
        "overflowing": np.array([1.0, 1e308]),
        "empty": np.array([]),
        "nan": np.array([10.0, np.nan]),
        "inf": np.array([10.0, np.inf]),
        "zero": np.array([0.0, 10.0]),
        "negative": np.array([10.0, -1.0]),
    }

    @staticmethod
    def outcome(call):
        """The values' bits, or the error, with warnings as errors."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = np.asarray(call(), dtype=float)
            except (ReproError, RuntimeWarning) as exc:
                return type(exc), str(exc)
        return values.shape, values.tobytes()

    @pytest.mark.parametrize("volumes", sorted(VOLUMES))
    @pytest.mark.parametrize("changes", [
        {}, {"sd": 300}, {"n_transistors": 10**7}, {"sd": 100.0000001},
        {"sd": 1e300}, {"sd": 50.0}, {"n_transistors": 1e200},
        {"feature_um": 1e-200}, {"yield_fraction": 1e-300,
                                 "cost_per_cm2": 1e300},
        {"cost_per_cm2": -1.0}, {"sd": np.float64(300.0)},
    ], ids=repr)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_equals_the_model_call(self, name, changes, volumes):
        model = self.MODELS[name]
        fixed = dict(self.FIXED, **changes)
        kernel = Eq4VolumeKernel(model, **fixed)
        grid = self.VOLUMES[volumes]
        expected = self.outcome(lambda: model.transistor_cost(
            fixed["sd"], fixed["n_transistors"], fixed["feature_um"], grid,
            fixed["yield_fraction"], fixed["cost_per_cm2"]))
        assert self.outcome(lambda: kernel.batch(grid)) == expected

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_sets_up_once_for_plain_numbers(self, name):
        """The cases above reach the set-up-once pass, not only the call."""
        assert Eq4VolumeKernel(self.MODELS[name], **self.FIXED)._fixed is not None


class TestObjectiveRowsMetamorphic:
    """Relations of eqs. (2), (4) and (5) that pin the fused objective rows."""

    GRID = GRIDS["figure4"]

    @staticmethod
    def rows(model=PAPER_FIGURE4_MODEL, **changes):
        return DesignObjectivesKernel(model, **dict(FIG4A, **changes)).batch(
            TestObjectiveRowsMetamorphic.GRID)

    def test_area_round_trips_through_eq2(self):
        n_tr, feature = FIG4A["n_transistors"], FIG4A["feature_um"]
        area = self.rows()[0]
        np.testing.assert_array_equal(area, area_from_sd(self.GRID, n_tr, feature))
        # s_d = A/(N_tr λ²) gives the grid back to rounding.
        np.testing.assert_allclose(decompression_index(area, n_tr, feature),
                                   self.GRID, rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("factor", [0.5, 2.0, 4.0])
    def test_cost_scales_with_inverse_yield(self, factor):
        base = self.rows(yield_fraction=0.4)
        moved = self.rows(yield_fraction=0.4 / factor)
        # A power-of-two factor scales eq. (4)'s λ² s_d/(u·Y) exactly.
        np.testing.assert_array_equal(moved[1], base[1] * factor)
        np.testing.assert_array_equal(moved[[0, 2]], base[[0, 2]])

    def test_development_cost_per_cm2_halves_when_volume_doubles(self):
        model = TotalCostModel()  # with the mask term
        n_tr, feature, volume = (FIG4A["n_transistors"], FIG4A["feature_um"],
                                 FIG4A["n_wafers"])
        design = self.rows(model)[2]
        cd_sq = model.design_cost_per_cm2(n_tr, self.GRID, feature, volume)
        np.testing.assert_array_equal(
            cd_sq, (design + model.mask_cost(feature))
            / (volume * model.wafer.area_cm2))
        np.testing.assert_array_equal(
            model.design_cost_per_cm2(n_tr, self.GRID, feature, 2 * volume),
            cd_sq / 2)
        np.testing.assert_array_equal(self.rows(model, n_wafers=2 * volume)[2],
                                      design)


class TestMaskCollect:
    def test_mask_nans_infeasible_points_in_order(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = np.array([50.0, 300.0, 400.0, 60.0])
        evaluation = evaluate_grid(kernel, grid, policy=ErrorPolicy.MASK,
                                   where="test.parity", equation="4",
                                   parameter="sd")
        assert np.isnan(evaluation.values[[0, 3]]).all()
        assert np.isfinite(evaluation.values[[1, 2]]).all()
        assert [d.index for d in evaluation.diagnostics] == [0, 3]
        assert all(d.where == "test.parity" for d in evaluation.diagnostics)

    def test_mask_values_match_scalar_on_feasible_points(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = np.array([50.0, 300.0, 400.0])
        evaluation = evaluate_grid(kernel, grid, policy=ErrorPolicy.MASK,
                                   where="test.parity")
        expected = scalar_reference(kernel, grid[1:])
        assert max_relative_error(evaluation.values[1:], expected) <= 1e-12

    def test_mask_whole_batch_failure_falls_back_to_scalar_loop(self):
        # yield_fraction=0 is infeasible for every point: the batch call
        # raises and the dispatch must degrade to per-point diagnostics.
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, n_transistors=1e7,
                             feature_um=0.18, n_wafers=5_000,
                             yield_fraction=0.0, cost_per_cm2=8.0)
        grid = np.array([200.0, 300.0, 400.0])
        evaluation = evaluate_grid(kernel, grid, policy=ErrorPolicy.MASK,
                                   where="test.parity", parameter="sd")
        assert np.isnan(evaluation.values).all()
        assert len(evaluation.diagnostics) == grid.size
        _, scalar = engine_core._scalar_loop(
            kernel, grid, ErrorPolicy.MASK, "test.parity", "", "sd")
        assert evaluation.diagnostics == scalar

    def test_collect_raises_aggregate_after_trying_everything(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = np.array([50.0, 300.0, 60.0])
        with pytest.raises(CollectedErrors, match=r"2 point\(s\) failed"):
            evaluate_grid(kernel, grid, policy=ErrorPolicy.COLLECT,
                          where="test.parity", parameter="sd")

