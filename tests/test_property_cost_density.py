"""Property-based tests (hypothesis) on the cost/density algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import (
    PAPER_DESIGN_COST_MODEL,
    PAPER_FIGURE4_MODEL,
    TotalCostModel,
    die_cost,
    sd_for_transistor_cost,
    transistor_cost,
)
from repro.density import (
    area_from_sd,
    decompression_index,
    feature_from_sd,
    transistors_from_sd,
)

# Physically sensible strategy ranges (paper-era magnitudes).
features = st.floats(min_value=0.03, max_value=2.0)
sds = st.floats(min_value=20.0, max_value=2000.0)
sds_above_bound = st.floats(min_value=101.0, max_value=2000.0)
yields = st.floats(min_value=0.05, max_value=1.0)
areas = st.floats(min_value=0.01, max_value=10.0)
counts = st.floats(min_value=1e4, max_value=1e9)
cm_sqs = st.floats(min_value=0.5, max_value=100.0)
volumes = st.floats(min_value=10.0, max_value=1e7)


class TestDensityAlgebra:
    @given(areas, counts, features)
    def test_sd_positive(self, area, n, lam):
        assert decompression_index(area, n, lam) > 0

    @given(sds, counts, features)
    def test_area_round_trip(self, sd, n, lam):
        area = area_from_sd(sd, n, lam)
        assert decompression_index(area, n, lam) == pytest.approx(sd, rel=1e-9)

    @given(sds, areas, features)
    def test_transistor_round_trip(self, sd, area, lam):
        n = transistors_from_sd(sd, area, lam)
        assert area_from_sd(sd, n, lam) == pytest.approx(area, rel=1e-9)

    @given(sds, areas, counts)
    def test_feature_round_trip(self, sd, area, n):
        lam = feature_from_sd(sd, area, n)
        assert decompression_index(area, n, lam) == pytest.approx(sd, rel=1e-9)

    @given(areas, counts, features, st.floats(min_value=1.1, max_value=10.0))
    def test_sd_monotone_in_area(self, area, n, lam, factor):
        assert decompression_index(area * factor, n, lam) > \
            decompression_index(area, n, lam)


class TestEq3Properties:
    @given(cm_sqs, features, sds, yields)
    def test_cost_positive(self, cm, lam, sd, y):
        assert transistor_cost(cm, lam, sd, y) > 0

    @given(cm_sqs, features, sds, yields)
    def test_homogeneity(self, cm, lam, sd, y):
        # Doubling C_sq and halving s_d leaves cost unchanged.
        a = transistor_cost(cm, lam, sd, y)
        b = transistor_cost(2 * cm, lam, sd / 2, y)
        assert a == pytest.approx(b, rel=1e-12)

    @given(cm_sqs, features, sds, st.floats(min_value=0.05, max_value=0.5))
    def test_yield_improvement_always_helps(self, cm, lam, sd, y):
        assert transistor_cost(cm, lam, sd, min(2 * y, 1.0)) < \
            transistor_cost(cm, lam, sd, y)

    @given(cm_sqs, features, sds, yields, counts)
    def test_die_cost_consistency(self, cm, lam, sd, y, n):
        per_die = die_cost(cm, lam, sd, n, y)
        per_tx = transistor_cost(cm, lam, sd, y)
        assert per_die == pytest.approx(per_tx * n, rel=1e-9)

    @given(st.floats(min_value=1e-9, max_value=1e-3), cm_sqs, features, yields)
    def test_sd_inversion(self, target, cm, lam, y):
        sd = sd_for_transistor_cost(target, cm, lam, y)
        assert transistor_cost(cm, lam, sd, y) == pytest.approx(target, rel=1e-9)


class TestEq6Properties:
    @given(counts, sds_above_bound)
    def test_cost_positive(self, n, sd):
        assert PAPER_DESIGN_COST_MODEL.cost(n, sd) > 0

    @given(counts, sds_above_bound, st.floats(min_value=1.01, max_value=5.0))
    def test_sparser_always_cheaper(self, n, sd, factor):
        assert PAPER_DESIGN_COST_MODEL.cost(n, sd * factor) < \
            PAPER_DESIGN_COST_MODEL.cost(n, sd)

    @given(counts, sds_above_bound)
    def test_budget_inversion(self, n, sd):
        budget = PAPER_DESIGN_COST_MODEL.cost(n, sd)
        recovered = PAPER_DESIGN_COST_MODEL.sd_for_budget(n, budget)
        assert recovered == pytest.approx(sd, rel=1e-9)

    @given(counts, sds_above_bound)
    def test_marginal_cost_negative(self, n, sd):
        assert PAPER_DESIGN_COST_MODEL.marginal_cost_wrt_sd(n, sd) < 0


class TestEq4Properties:
    @given(sds_above_bound, counts, features, volumes, yields, cm_sqs)
    @settings(max_examples=50)
    def test_total_at_least_manufacturing(self, sd, n, lam, nw, y, cm):
        total = PAPER_FIGURE4_MODEL.transistor_cost(sd, n, lam, nw, y, cm)
        floor = transistor_cost(cm, lam, sd, y)
        assert total >= floor

    @given(sds_above_bound, counts, features, volumes, yields, cm_sqs)
    @settings(max_examples=50)
    def test_breakdown_sums(self, sd, n, lam, nw, y, cm):
        b = PAPER_FIGURE4_MODEL.breakdown(sd, n, lam, nw, y, cm)
        total = PAPER_FIGURE4_MODEL.transistor_cost(sd, n, lam, nw, y, cm)
        assert b.total == pytest.approx(total, rel=1e-9)

    @given(sds_above_bound, counts, features, volumes)
    @settings(max_examples=50)
    def test_cd_sq_halves_when_volume_doubles(self, sd, n, lam, nw):
        # Eq. (5): (C_MA + C_DE)/(N_w·A_w), mask set included.
        model = TotalCostModel()
        assert model.design_cost_per_cm2(n, sd, lam, 2 * nw) == \
            model.design_cost_per_cm2(n, sd, lam, nw) / 2

    @given(sds_above_bound, counts, features, volumes, yields, cm_sqs,
           st.floats(min_value=1.5, max_value=10.0))
    @settings(max_examples=50)
    def test_volume_always_helps(self, sd, n, lam, nw, y, cm, factor):
        a = PAPER_FIGURE4_MODEL.transistor_cost(sd, n, lam, nw, y, cm)
        b = PAPER_FIGURE4_MODEL.transistor_cost(sd, n, lam, nw * factor, y, cm)
        assert b < a
