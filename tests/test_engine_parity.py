"""Engine parity: batched evaluation must reproduce the scalar loops.

The reproduction contract of :mod:`repro.engine` is numerical and
behavioural identity with the per-point loops it replaced: same values
(to <=1e-12 relative), same diagnostics under MASK/COLLECT, same
results from the pure-python backend.
"""

import numpy as np
import pytest

from repro.cost import DEFAULT_GENERALIZED_MODEL, PAPER_FIGURE4_MODEL
from repro.data import DesignRegistry, load_itrs_1999
from repro.engine import (
    cache_stats,
    clear_cache,
    evaluate_grid,
    using,
)
from repro.engine.kernels import (
    DesignObjectivesKernel,
    Eq4SdKernel,
    Eq4VolumeKernel,
    Eq7SdKernel,
)
from repro.errors import CollectedErrors
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


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestBatchScalarParity:
    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_eq4_matches_scalar(self, grid_name):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS[grid_name]
        evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                   equation="4", parameter="sd", cache=False)
        assert evaluation.backend == "numpy"
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12

    @pytest.mark.parametrize("grid_name", sorted(GRIDS))
    def test_eq7_matches_scalar(self, grid_name):
        kernel = Eq7SdKernel(DEFAULT_GENERALIZED_MODEL, n_transistors=1e7,
                             feature_um=0.18, n_wafers=5_000)
        grid = GRIDS[grid_name]
        evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                   equation="7", parameter="sd", cache=False)
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12

    def test_volume_kernel_matches_scalar(self):
        kernel = Eq4VolumeKernel(PAPER_FIGURE4_MODEL, sd=300.0,
                                 n_transistors=1e7, feature_um=0.18,
                                 yield_fraction=0.4, cost_per_cm2=8.0)
        grid = np.geomspace(1e2, 5e5, 80)
        evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                   equation="4", parameter="n_wafers",
                                   cache=False)
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12

    def test_objectives_kernel_matches_scalar_rows(self):
        kernel = DesignObjectivesKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS["figure4"]
        evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                   equation="4", parameter="sd", cache=False)
        assert evaluation.values.shape == (3, grid.size)
        assert max_relative_error(
            evaluation.values, scalar_reference(kernel, grid)) <= 1e-12


class TestPythonBackend:
    def test_python_backend_matches_numpy(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS["figure4"]
        reference = evaluate_grid(kernel, grid, where="test.parity",
                                  cache=False).values
        with using("python"):
            evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                       cache=False)
        assert evaluation.backend == "python"
        assert max_relative_error(evaluation.values, reference) <= 1e-12

    def test_python_backend_eq7_matches_numpy(self):
        kernel = Eq7SdKernel(DEFAULT_GENERALIZED_MODEL, n_transistors=1e7,
                             feature_um=0.18, n_wafers=5_000)
        grid = GRIDS["itrs"]
        reference = evaluate_grid(kernel, grid, where="test.parity",
                                  cache=False).values
        with using("python"):
            evaluation = evaluate_grid(kernel, grid, where="test.parity",
                                       cache=False)
        assert max_relative_error(evaluation.values, reference) <= 1e-12

    def test_python_backend_mask_diagnostics_match_numpy(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = np.array([50.0, 300.0, 400.0, 60.0])
        numpy_eval = evaluate_grid(kernel, grid, policy=ErrorPolicy.MASK,
                                   where="test.parity", equation="4",
                                   parameter="sd", cache=False)
        with using("python"):
            python_eval = evaluate_grid(kernel, grid, policy=ErrorPolicy.MASK,
                                        where="test.parity", equation="4",
                                        parameter="sd", cache=False)
        np.testing.assert_array_equal(np.isnan(numpy_eval.values),
                                      np.isnan(python_eval.values))
        assert ([str(d) for d in numpy_eval.diagnostics]
                == [str(d) for d in python_eval.diagnostics])


class TestMaskCollect:
    def test_mask_nans_infeasible_points_in_order(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = np.array([50.0, 300.0, 400.0, 60.0])
        evaluation = evaluate_grid(kernel, grid, policy=ErrorPolicy.MASK,
                                   where="test.parity", equation="4",
                                   parameter="sd", cache=False)
        assert np.isnan(evaluation.values[[0, 3]]).all()
        assert np.isfinite(evaluation.values[[1, 2]]).all()
        assert [d.index for d in evaluation.diagnostics] == [0, 3]
        assert all(d.where == "test.parity" for d in evaluation.diagnostics)

    def test_mask_values_match_scalar_on_feasible_points(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = np.array([50.0, 300.0, 400.0])
        evaluation = evaluate_grid(kernel, grid, policy=ErrorPolicy.MASK,
                                   where="test.parity", cache=False)
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
                                   where="test.parity", parameter="sd",
                                   cache=False)
        assert np.isnan(evaluation.values).all()
        assert len(evaluation.diagnostics) == grid.size

    def test_collect_raises_aggregate_after_trying_everything(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = np.array([50.0, 300.0, 60.0])
        with pytest.raises(CollectedErrors, match=r"2 point\(s\) failed"):
            evaluate_grid(kernel, grid, policy=ErrorPolicy.COLLECT,
                          where="test.parity", parameter="sd", cache=False)


class TestCache:
    def test_identical_evaluation_hits_cache(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS["figure4"]
        first = evaluate_grid(kernel, grid, where="test.cache")
        second = evaluate_grid(kernel, grid, where="test.cache")
        assert not first.cache_hit
        assert second.cache_hit
        np.testing.assert_array_equal(first.values, second.values)
        assert cache_stats().hits == 1

    def test_changed_grid_misses(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS["figure4"].copy()
        evaluate_grid(kernel, grid, where="test.cache")
        grid[0] += 1e-9
        second = evaluate_grid(kernel, grid, where="test.cache")
        assert not second.cache_hit

    def test_changed_operating_point_misses(self):
        grid = GRIDS["figure4"]
        evaluate_grid(Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A), grid,
                      where="test.cache")
        other = dict(FIG4A, n_wafers=50_000)
        second = evaluate_grid(Eq4SdKernel(PAPER_FIGURE4_MODEL, **other),
                               grid, where="test.cache")
        assert not second.cache_hit

    def test_cache_false_opts_out(self):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = GRIDS["figure4"]
        evaluate_grid(kernel, grid, where="test.cache", cache=False)
        second = evaluate_grid(kernel, grid, where="test.cache", cache=False)
        assert not second.cache_hit
        stats = cache_stats()
        assert stats.hits == 0 and stats.misses == 0
