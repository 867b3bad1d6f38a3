"""Optimal-s_d solver tests (§3.1)."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import DEFAULT_GENERALIZED_MODEL, PAPER_FIGURE4_MODEL, TotalCostModel
from repro.cost.design import DesignCostModel
from repro.errors import ConvergenceError, DomainError
from repro.optimize import (
    optimal_sd,
    optimal_sd_condition,
    optimal_sd_generalized,
    optimum_vs_volume,
    parameter_elasticities,
    sd_sweep,
)
from repro.optimize.optimum import _SharedSetup
from repro.robust import RetryBudget, retrying_golden_min

FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5000,
             yield_fraction=0.4, cost_per_cm2=8.0)
FIG4B = dict(n_transistors=1e7, feature_um=0.18, n_wafers=50_000,
             yield_fraction=0.9, cost_per_cm2=8.0)


class TestOptimalSd:
    def test_matches_dense_sweep(self):
        res = optimal_sd(PAPER_FIGURE4_MODEL, **FIG4A)
        sweep = sd_sweep(PAPER_FIGURE4_MODEL, **FIG4A,
                         sd_values=np.linspace(105, 1500, 20_000))
        assert res.sd_opt == pytest.approx(sweep.x_opt, rel=2e-3)
        assert res.cost_opt <= sweep.cost_opt * (1 + 1e-9)

    def test_satisfies_first_order_condition(self):
        res = optimal_sd(PAPER_FIGURE4_MODEL, **FIG4A)
        residual = optimal_sd_condition(PAPER_FIGURE4_MODEL, res.sd_opt, **FIG4A)
        # The residual is in $/cm^2; compare against the 8 $/cm^2 scale.
        assert abs(residual) <= 1e-10 * FIG4A["cost_per_cm2"]

    def test_condition_sign_structure(self):
        res = optimal_sd(PAPER_FIGURE4_MODEL, **FIG4A)
        below = optimal_sd_condition(PAPER_FIGURE4_MODEL, res.sd_opt * 0.7, **FIG4A)
        above = optimal_sd_condition(PAPER_FIGURE4_MODEL, res.sd_opt * 1.3, **FIG4A)
        assert below < 0 < above

    def test_paper_volume_contrast(self):
        # Figure 4's headline: the optimum moves substantially with
        # volume/yield — low volume pushes towards sparser design.
        a = optimal_sd(PAPER_FIGURE4_MODEL, **FIG4A)
        b = optimal_sd(PAPER_FIGURE4_MODEL, **FIG4B)
        assert a.sd_opt > 1.5 * b.sd_opt
        assert a.cost_opt > b.cost_opt

    def test_bracket_recorded(self):
        res = optimal_sd(PAPER_FIGURE4_MODEL, **FIG4A)
        lo, hi = res.bracket
        assert lo < res.sd_opt < hi

    def test_clipped_optimum_raises(self):
        # An absurdly expensive design regime pushes the optimum past
        # any finite bracket.
        expensive = TotalCostModel(design_model=DesignCostModel(a0=1e12),
                                   include_masks=False)
        with pytest.raises(DomainError, match="clipped"):
            optimal_sd(expensive, sd_max=2000.0, **FIG4A)

    def test_invalid_bracket_raises(self):
        with pytest.raises(DomainError):
            optimal_sd(PAPER_FIGURE4_MODEL, sd_max=50.0, **FIG4A)


    def test_root_below_the_bracket_returns_its_lower_end(self):
        # At this volume the design term is negligible: the stationary
        # point lies below s_d0·(1 + 1e-6), so no Newton step is taken.
        point = dict(FIG4A, n_wafers=1e30)
        res = optimal_sd(PAPER_FIGURE4_MODEL, **point)
        lo = res.bracket[0]
        assert (res.sd_opt, res.iterations) == (lo, 0)
        assert optimal_sd_condition(PAPER_FIGURE4_MODEL, lo, **point) > 0
        assert res.cost_opt == PAPER_FIGURE4_MODEL.transistor_cost(lo, **point)

    def test_iteration_cap_raises_with_report(self):
        root = optimal_sd(PAPER_FIGURE4_MODEL, **FIG4A)
        assert root.iterations > 2
        with pytest.raises(ConvergenceError) as err:
            optimal_sd(PAPER_FIGURE4_MODEL, **FIG4A, max_iter=2)
        report = err.value.report
        assert report.solver == "optimize.optimum.optimal_sd"
        assert (report.attempts, report.iterations) == (1, 2)
        lo, hi = report.last_bracket
        # The Newton iterates fall onto the root from the right.
        assert lo < root.sd_opt < hi == report.best_x
        assert report.best_fx > root.cost_opt

    def test_retry_grows_the_iteration_cap(self):
        root = optimal_sd(PAPER_FIGURE4_MODEL, **FIG4A)
        res = optimal_sd(PAPER_FIGURE4_MODEL, **FIG4A, max_iter=2,
                         retry=RetryBudget(max_attempts=3, iter_growth=4.0))
        assert res.attempts == 2
        assert (res.sd_opt, res.cost_opt, res.iterations) == \
            (root.sd_opt, root.cost_opt, root.iterations)


#: Operating points around the paper's: every one has an interior optimum.
operating_points = st.fixed_dictionaries(dict(
    n_transistors=st.floats(1e5, 1e9),
    feature_um=st.sampled_from([0.35, 0.25, 0.18, 0.13, 0.09]),
    n_wafers=st.floats(1e2, 1e6),
    yield_fraction=st.floats(0.05, 1.0),
    cost_per_cm2=st.floats(1.0, 40.0),
))


class TestStationarityRoot:
    @settings(max_examples=200, deadline=None)
    @given(point=operating_points, masks=st.booleans(),
           utilization=st.floats(0.05, 1.0))
    def test_residual_at_rounding_level(self, point, masks, utilization):
        model = TotalCostModel(include_masks=masks, utilization=utilization)
        res = optimal_sd(model, **point, sd_max=1e6)
        residual = optimal_sd_condition(model, res.sd_opt, **point)
        assert abs(residual) <= 1e-10 * point["cost_per_cm2"]

    @settings(max_examples=100, deadline=None)
    @given(point=operating_points, other_yield=st.floats(0.05, 1.0),
           utilization=st.floats(0.05, 1.0))
    def test_yield_and_utilization_only_scale_the_cost(self, point, other_yield,
                                                       utilization):
        model = TotalCostModel()
        base = optimal_sd(model, **point, sd_max=1e6)
        moved = optimal_sd(replace(model, utilization=utilization),
                           **dict(point, yield_fraction=other_yield), sd_max=1e6)
        assert moved.sd_opt == base.sd_opt

    def test_elasticity_to_yield_is_exactly_zero(self):
        elasticities = parameter_elasticities(
            PAPER_FIGURE4_MODEL, FIG4A, parameters=["yield_fraction"])
        assert elasticities == {"yield_fraction": 0.0}

    @settings(max_examples=100, deadline=None)
    @given(point=operating_points, factor=st.floats(1.01, 100.0))
    def test_sd_opt_falls_strictly_with_volume(self, point, factor):
        model = TotalCostModel()
        low = optimal_sd(model, **point, sd_max=1e6)
        high = optimal_sd(model, **dict(point, n_wafers=point["n_wafers"] * factor),
                          sd_max=1e6)
        assert high.sd_opt < low.sd_opt


def _point_args(point: dict) -> tuple:
    return (point["n_transistors"], point["feature_um"], point["n_wafers"],
            point["yield_fraction"], point["cost_per_cm2"])


class TestSharedSetup:
    """The shared-setup solve is ``optimal_sd``'s root path, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(point=operating_points, masks=st.booleans(),
           utilization=st.floats(0.05, 1.0))
    def test_bit_identical_to_optimal_sd(self, point, masks, utilization):
        model = TotalCostModel(include_masks=masks, utilization=utilization)
        res = optimal_sd(model, **point, sd_max=1e6)
        setup = _SharedSetup(model, 1e6)
        found = setup._shared(_point_args(point), cost=True)
        assert found == (res.sd_opt, res.cost_opt, res.iterations)
        sd_opt, cost_opt, iterations = setup._shared(_point_args(point),
                                                     cost=False)
        assert (sd_opt, iterations) == (res.sd_opt, res.iterations)
        assert np.isnan(cost_opt)

    @settings(max_examples=100, deadline=None)
    @given(point=operating_points, masks=st.booleans(),
           sd_max=st.floats(150.0, 5000.0))
    def test_solve_raises_what_optimal_sd_raises(self, point, masks, sd_max):
        model = TotalCostModel(include_masks=masks)
        args = _point_args(point)
        assert _outcome(_SharedSetup(model, sd_max).solve, *args) == \
            _outcome(optimal_sd, model, *args, sd_max=sd_max)

    @pytest.mark.parametrize("point", [
        dict(FIG4A, yield_fraction=1e-320),  # the cost overflows at the optimum
        dict(FIG4A, feature_um=1e200),  # lambda^2 overflows
        dict(FIG4A, n_wafers=-1.0),
        dict(FIG4A, n_wafers=np.float64(5000.0)),  # not a plain number
    ])
    def test_edges_re_run_through_optimal_sd(self, point):
        setup = _SharedSetup(PAPER_FIGURE4_MODEL)
        args = _point_args(point)
        assert setup._shared(args, cost=False) is None
        assert _outcome(setup.solve, *args) == \
            _outcome(optimal_sd, PAPER_FIGURE4_MODEL, *args)


def _outcome(solve, *args, **kwargs):
    """``(sd_opt, cost_opt, iterations)``, or the error's type and message."""
    try:
        found = solve(*args, **kwargs)
    except DomainError as exc:
        return type(exc), str(exc)
    if isinstance(found, tuple):
        return found
    return found.sd_opt, found.cost_opt, found.iterations


class TestOptimalSdGeneralized:
    def test_is_the_golden_section_search(self):
        model = DEFAULT_GENERALIZED_MODEL
        sd0 = model.design_model.sd0
        reference = retrying_golden_min(
            lambda sd: float(model.transistor_cost(sd, 1e7, 0.18, 5000)),
            sd0 * (1 + 1e-6) + 1e-9, 5000.0, 1e-10, 500, solver="reference",
            lo_floor=sd0)
        res = optimal_sd_generalized(model, 1e7, 0.18, 5000)
        assert (res.sd_opt, res.cost_opt, res.iterations) == reference[:3]

    def test_interior_optimum(self):
        res = optimal_sd_generalized(DEFAULT_GENERALIZED_MODEL, 1e7, 0.18, 5000)
        assert 100 < res.sd_opt < 5000

    @settings(max_examples=25, deadline=None)
    @given(n_transistors=st.floats(min_value=1e5, max_value=1e9),
           feature_um=st.floats(min_value=0.05, max_value=0.5),
           n_wafers=st.floats(min_value=100.0, max_value=1e5),
           factor=st.floats(min_value=2.0, max_value=1e3))
    def test_volume_moves_optimum_down(self, n_transistors, feature_um,
                                       n_wafers, factor):
        # Figure 4: more wafers amortise the design cost, so the
        # optimum moves towards the full-custom bound. A wide bracket
        # keeps it interior.
        def optimum(volume):
            return optimal_sd_generalized(
                DEFAULT_GENERALIZED_MODEL, n_transistors, feature_um, volume,
                sd_max=1e5).sd_opt
        assert optimum(n_wafers * factor) < optimum(n_wafers)


class TestOptimumVsVolume:
    def test_monotone_fall_with_volume(self):
        trace = optimum_vs_volume(PAPER_FIGURE4_MODEL, 1e7, 0.18, 0.8, 8.0,
                                  n_wafers_values=np.geomspace(1e3, 1e6, 7))
        sds = [res.sd_opt for _, res in trace]
        assert all(a > b for a, b in zip(sds, sds[1:]))

    def test_limits_towards_bound(self):
        trace = optimum_vs_volume(PAPER_FIGURE4_MODEL, 1e7, 0.18, 0.8, 8.0,
                                  n_wafers_values=[1e8])
        assert trace[0][1].sd_opt < 130  # near sd0 at extreme volume

    def test_costs_fall_with_volume(self):
        trace = optimum_vs_volume(PAPER_FIGURE4_MODEL, 1e7, 0.18, 0.8, 8.0,
                                  n_wafers_values=np.geomspace(1e3, 1e6, 5))
        costs = [res.cost_opt for _, res in trace]
        assert all(a > b for a, b in zip(costs, costs[1:]))
