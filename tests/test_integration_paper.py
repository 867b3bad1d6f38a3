"""End-to-end integration tests: the paper's figures as executable claims.

Each test regenerates one paper artifact through the public API (the
same code paths the benchmarks use) and asserts its *shape* — the
reproduction contract of DESIGN.md §7.
"""

import numpy as np
import pytest

from repro.cost import PAPER_FIGURE4_MODEL, DEFAULT_GENERALIZED_MODEL
from repro.data import DesignRegistry, load_itrs_1999
from repro.density import sd_vs_feature_fit, vendor_density_advantage
from repro.optimize import optimal_sd, sd_sweep
from repro.report import Series
from repro.roadmap import constant_cost_series, feasibility_report


@pytest.fixture(scope="module")
def registry():
    return DesignRegistry.table_a1()


@pytest.fixture(scope="module")
def itrs():
    return load_itrs_1999()


class TestFigure1:
    """Industrial s_d: wide range, rising trend, vendor strategy."""

    def test_range_matches_paper(self, registry):
        sd = registry.sd_logic_values()
        assert 90 < min(sd) < 130
        assert 650 < max(sd) < 850
        mem = registry.sd_mem_values()
        assert 30 < min(mem) < 60

    def test_rising_trend(self, registry):
        fit = sd_vs_feature_fit(registry)
        assert fit.slope < -0.2  # clearly negative exponent vs lambda

    def test_two_fold_increase_claim(self, registry):
        # §2.2.2: "two or more fold increase of s_d" across the era.
        fit = sd_vs_feature_fit(registry)
        assert fit.predict(0.18) / fit.predict(0.8) > 1.5

    def test_amd_strategy_flips_at_k7(self, registry):
        # Pre-K7 AMD denser than Intel; the K7 itself is sparser than
        # Intel's node-matched parts.
        pre = registry.filter(lambda r: not (r.vendor == "AMD" and "K7" in r.device))
        matches = vendor_density_advantage(pre, "AMD", "Intel")
        assert np.median([m[2] for m in matches]) < 1
        k7 = registry.by_device("K7")
        assert k7.best_sd_logic() > 300


class TestFigure2:
    """Roadmap-implied s_d falls with lambda."""

    def test_monotone_fall(self, itrs):
        series = Series.from_arrays(
            "fig2", [n.feature_um for n in itrs], [n.implied_sd() for n in itrs])
        # In x order (lambda ascending) the implied s_d rises — i.e. it
        # falls as lambda shrinks through the roadmap.
        assert series.is_increasing()

    def test_opposite_of_industry(self, registry, itrs):
        industry = sd_vs_feature_fit(registry)
        implied = [n.implied_sd() for n in itrs]
        # Industry: s_d UP as lambda down. Roadmap: s_d DOWN as lambda down.
        assert industry.slope < 0
        assert implied[0] > implied[-1]


class TestFigure3:
    """The cost contradiction: implied/constant-cost ratio grows past 1."""

    def test_ratio_series(self, itrs):
        series = constant_cost_series(itrs)
        ratios = [p.ratio for p in series]
        assert ratios[0] == pytest.approx(1.0, abs=0.15)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] > 1.5

    def test_affordable_area_constant(self, itrs):
        series = constant_cost_series(itrs)
        areas = [p.sd_constant_cost * p.node.mpu_transistors_m * 1e6
                 * p.node.feature_cm**2 for p in series]
        assert max(areas) == pytest.approx(min(areas), rel=1e-9)
        assert areas[0] == pytest.approx(3.4, rel=1e-9)


class TestFigure4:
    """U-curves and the volume-dependent optimum."""

    FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5000,
                 yield_fraction=0.4, cost_per_cm2=8.0)
    FIG4B = dict(n_transistors=1e7, feature_um=0.18, n_wafers=50_000,
                 yield_fraction=0.9, cost_per_cm2=8.0)
    #: Golden optima, ``(sd_opt, cost_opt)`` of ``optimal_sd`` and
    #: ``(x_opt, cost_opt)`` of the default 400-point ``sd_sweep``. The
    #: evaluation paths agree to ~1e-15; RTOL leaves room for libm
    #: ``pow`` differences across platforms, and is far below any
    #: change a refactor of eqs. (4)-(6) could make by mistake.
    GOLDEN = {
        "FIG4A": ((310.3548085821583, 4.6213406433717215e-06),
                  (309.4997748853781, 4.621362583446931e-06)),
        "FIG4B": ((167.63366015909997, 7.273240821993453e-07),
                  (167.5199967804392, 7.273246604992997e-07)),
    }
    RTOL = 1e-9

    @pytest.mark.parametrize("name", ["FIG4A", "FIG4B"])
    def test_optima_pinned(self, name):
        (sd_opt, cost_opt), (x_opt, sweep_opt) = self.GOLDEN[name]
        point = getattr(self, name)
        optimum = optimal_sd(PAPER_FIGURE4_MODEL, **point)
        sweep = sd_sweep(PAPER_FIGURE4_MODEL, **point)
        assert optimum.sd_opt == pytest.approx(sd_opt, rel=self.RTOL)
        assert optimum.cost_opt == pytest.approx(cost_opt, rel=self.RTOL)
        assert sweep.x_opt == pytest.approx(x_opt, rel=self.RTOL)
        assert sweep.cost_opt == pytest.approx(sweep_opt, rel=self.RTOL)

    def test_both_scenarios_u_shaped(self):
        for point in (self.FIG4A, self.FIG4B):
            sweep = sd_sweep(PAPER_FIGURE4_MODEL, **point)
            assert sweep.is_interior_minimum()
            # Costs rise on both sides of the optimum.
            assert sweep.cost[0] > sweep.cost_opt
            assert sweep.cost[-1] > sweep.cost_opt

    def test_optimum_location_substantially_volume_dependent(self):
        a = optimal_sd(PAPER_FIGURE4_MODEL, **self.FIG4A)
        b = optimal_sd(PAPER_FIGURE4_MODEL, **self.FIG4B)
        # The paper's claim: "the location of the optimum s_d changes
        # substantially with the volume and yield".
        assert a.sd_opt / b.sd_opt > 1.5
        # And the low-volume scenario is the costlier one overall.
        assert a.cost_opt > 3 * b.cost_opt

    def test_neither_extreme_is_optimal(self):
        # §3.1's conclusion: neither the smallest die (s_d -> s_d0) nor
        # the sparsest design minimises cost.
        a = optimal_sd(PAPER_FIGURE4_MODEL, **self.FIG4A)
        assert 150 < a.sd_opt < 1000

    def test_generalized_model_preserves_conclusion(self):
        lo = DEFAULT_GENERALIZED_MODEL
        a = sd_sweep(PAPER_FIGURE4_MODEL, **self.FIG4A)
        from repro.optimize import sd_sweep_generalized
        g = sd_sweep_generalized(lo, 1e7, 0.18, 5000)
        assert g.is_interior_minimum()


class TestFeasibilityNarrative:
    """The paper's overall argument assembled: trends must change."""

    def test_gap_grows_past_any_fixed_factor(self, registry, itrs):
        report = feasibility_report(registry, itrs)
        assert report[0].gap_vs_constant_cost < 1.0  # fine in 1999
        assert report[-1].gap_vs_constant_cost > 3.0  # broken by 2014

    def test_constant_cost_needs_sub_custom_density_at_horizon(self, itrs):
        series = constant_cost_series(itrs)
        # By 2014 holding cost requires s_d below the full-custom bound
        # (~100) — impossible under eq. (6); hence "design for cost" and
        # regular, precharacterised structures (§3.2).
        assert series[-1].sd_constant_cost < 100
