"""Assorted edge-case hardening across modules."""

import warnings

import numpy as np
import pytest

from repro.api import Scenario, evaluate_many
from repro.cost import PAPER_FIGURE4_MODEL, transistor_cost
from repro.data import DesignRegistry
from repro.density import decompression_index
from repro.errors import DomainError, LayoutError
from repro.layout import Layout, Rect, extract_patterns, standard_cell
from repro.optimize import sd_sweep, volume_sweep
from repro.robust import ErrorPolicy
from repro.report import Series
from repro.wafer import WAFER_200MM, gross_die_exact


class TestWaferEdges:
    def test_rectangular_die_fits_differently(self):
        square = gross_die_exact(WAFER_200MM, 2.0, aspect_ratio=1.0)
        sliver = gross_die_exact(WAFER_200MM, 2.0, aspect_ratio=8.0)
        # Extreme aspect ratios waste the disc edge.
        assert sliver < square

    def test_die_the_size_of_the_wafer_rejected(self):
        usable = WAFER_200MM.usable_area_cm2
        with pytest.raises(DomainError):
            gross_die_exact(WAFER_200MM, usable * 2)

    def test_single_huge_die_possible(self):
        # One die whose diagonal just fits.
        n = gross_die_exact(WAFER_200MM, 150.0)
        assert n >= 1


class TestCostEdges:
    def test_tiny_feature_sizes_stay_finite(self):
        c = transistor_cost(8.0, 0.001, 300, 0.8)
        assert np.isfinite(c) and c > 0

    def test_sweep_with_two_points(self):
        sweep = sd_sweep(PAPER_FIGURE4_MODEL, 1e7, 0.18, 5000, 0.4, 8.0,
                         sd_values=np.array([150.0, 300.0]))
        assert sweep.argmin in (0, 1)
        assert not sweep.is_interior_minimum()

    def test_volume_sweep_single_decade(self):
        sweep = volume_sweep(PAPER_FIGURE4_MODEL, 300, 1e7, 0.18, 0.8, 8.0,
                             n_wafers_values=np.array([1e3, 1e4]))
        assert sweep.cost[0] > sweep.cost[1]

    def test_extreme_sd_values(self):
        # Far above the bound the model is silicon-dominated but valid.
        c = PAPER_FIGURE4_MODEL.transistor_cost(1e6, 1e7, 0.18, 5000, 0.8, 8.0)
        assert np.isfinite(c)


class TestFeatureOverflow:
    """``λ²`` overflowing a float is a ``DomainError``, never a warning."""

    HUGE = Scenario(n_transistors=1e7, feature_um=1e200)
    MESSAGE = "lambda^2 overflows for feature_um=1e+200"

    def test_raise_policy_raises_the_same_domain_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as excinfo:
                self.HUGE.evaluate()
        assert str(excinfo.value) == self.MESSAGE

    def test_mask_policy_records_a_diagnostic(self):
        fine = self.HUGE.replace(feature_um=0.18)
        diagnostics = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = evaluate_many([self.HUGE, fine], policy=ErrorPolicy.MASK,
                                    diagnostics=diagnostics)
        assert np.isnan(results[0].cost_per_transistor_usd)
        assert np.isfinite(results[1].cost_per_transistor_usd)
        assert [(d.index, d.error_type, d.message) for d in diagnostics] == [
            (0, "DomainError", self.MESSAGE)]

    def test_array_feature_overflow_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="lambda"):
                PAPER_FIGURE4_MODEL.sd_curve(1e7, np.array([0.18, 1e200]),
                                             5000, 0.4, 8.0)


class TestDensityEdges:
    def test_one_transistor_design(self):
        sd = decompression_index(1e-6, 1, 0.18)
        assert sd > 0

    def test_huge_counts(self):
        sd = decompression_index(10.0, 1e12, 0.035)
        assert sd > 0


class TestLayoutEdges:
    def test_pattern_extraction_window_larger_than_layout(self):
        rects = [Rect("m1", 0, 0, 4, 4)]
        library = extract_patterns(rects, window_size=100)
        assert library.n_windows == 1
        assert library.n_unique == 1

    def test_window_size_one(self):
        rects = [Rect("m1", 0, 0, 2, 1)]
        library = extract_patterns(rects, window_size=1)
        assert library.n_occupied_windows == 2
        assert library.n_unique == 1  # both windows carry a full 1x1 fill

    def test_negative_coordinates_supported(self):
        rects = [Rect("m1", -10, -10, -6, -6), Rect("m1", -2, -10, 2, -6)]
        library = extract_patterns(rects, window_size=8)
        assert library.n_occupied_windows >= 2

    def test_layout_single_instance(self):
        layout = Layout("one")
        layout.add(standard_cell("c", n_gates=1), 0, 0)
        assert layout.sd() > 0

    def test_cell_rects_are_immutable_tuple(self):
        cell = standard_cell("c")
        with pytest.raises((TypeError, AttributeError)):
            cell.rects.append(Rect("m1", 0, 0, 1, 1))  # type: ignore[attr-defined]


class TestSeriesEdges:
    def test_duplicate_x_crossing(self):
        s = Series.from_arrays("s", [0, 1, 1, 2], [0, 5, 5, 10])
        assert s.crossing_x(2.5) is not None

    def test_crossing_at_last_point(self):
        s = Series.from_arrays("s", [0, 1], [1, 5])
        assert s.crossing_x(5.0) == pytest.approx(1.0)

    def test_constant_series_not_strictly_monotone(self):
        s = Series.from_arrays("s", [0, 1, 2], [3, 3, 3])
        assert not s.is_increasing(strict=True)
        assert s.is_increasing(strict=False)
        assert s.is_decreasing(strict=False)


class TestRegistryEdges:
    def test_slice_negative(self):
        reg = DesignRegistry.table_a1()
        last_two = reg[-2:]
        assert len(last_two) == 2
        assert last_two[1].index == 49

    def test_filter_to_empty_then_query(self):
        reg = DesignRegistry.table_a1().by_vendor("NoSuchVendor")
        assert len(reg) == 0
        assert reg.sd_mem_values() == []
