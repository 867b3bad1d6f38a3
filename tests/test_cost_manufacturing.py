"""Eq. (1)/(3) manufacturing-cost tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import (
    die_cost,
    good_transistors_per_wafer,
    sd_for_transistor_cost,
    transistor_cost,
    transistor_cost_wafer_view,
)
from repro.errors import DomainError
from repro.wafer import DEFAULT_WAFER_COST_MODEL, WAFER_200MM, gross_die_area_ratio


class TestEquation3:
    def test_paper_anchor_value(self):
        # C_sq=8, lambda=0.18um, sd=300, Y=0.8:
        # 8 * 3.24e-10 * 300 / 0.8 = 9.72e-7 $/tx.
        assert transistor_cost(8.0, 0.18, 300, 0.8) == pytest.approx(9.72e-7)

    def test_linear_in_cost_per_cm2(self):
        assert transistor_cost(16.0, 0.18, 300, 0.8) == pytest.approx(
            2 * transistor_cost(8.0, 0.18, 300, 0.8))

    def test_linear_in_sd(self):
        assert transistor_cost(8.0, 0.18, 600, 0.8) == pytest.approx(
            2 * transistor_cost(8.0, 0.18, 300, 0.8))

    def test_quadratic_in_feature(self):
        assert transistor_cost(8.0, 0.36, 300, 0.8) == pytest.approx(
            4 * transistor_cost(8.0, 0.18, 300, 0.8))

    def test_inverse_in_yield(self):
        assert transistor_cost(8.0, 0.18, 300, 0.4) == pytest.approx(
            2 * transistor_cost(8.0, 0.18, 300, 0.8))

    def test_rejects_yield_above_one(self):
        with pytest.raises(DomainError):
            transistor_cost(8.0, 0.18, 300, 1.1)

    def test_rejects_zero_yield(self):
        with pytest.raises(DomainError):
            transistor_cost(8.0, 0.18, 300, 0.0)

    def test_array_sweep(self):
        sd = np.array([100.0, 200.0, 400.0])
        out = transistor_cost(8.0, 0.18, sd, 0.8)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)


class TestEquation1:
    def test_direct_formula(self):
        # $4000 wafer, 100 dice, 10M tx, Y=0.5: 4000/(1e7*100*0.5) = 8e-6.
        c = transistor_cost_wafer_view(4000.0, 1e7, 100, 0.5)
        assert c == pytest.approx(8e-6)

    @settings(max_examples=100, deadline=None)
    @given(cm_sq=st.floats(min_value=0.5, max_value=100.0),
           lam=st.floats(min_value=0.03, max_value=2.0),
           sd=st.floats(min_value=20.0, max_value=2000.0),
           y=st.floats(min_value=0.05, max_value=1.0),
           n_tr=st.floats(min_value=1e4, max_value=1e9))
    def test_agrees_with_eq3_when_nch_is_area_ratio(self, cm_sq, lam, sd, y,
                                                    n_tr):
        # Eq (1) == eq (3) when N_ch prices usable silicon exactly.
        die_area = n_tr * sd * (lam * 1e-4) ** 2
        n_ch = WAFER_200MM.usable_area_cm2 / die_area
        wafer_cost = cm_sq * WAFER_200MM.usable_area_cm2
        eq1 = transistor_cost_wafer_view(wafer_cost, n_tr, n_ch, y)
        eq3 = transistor_cost(cm_sq, lam, sd, y)
        assert eq1 == pytest.approx(eq3, rel=1e-12)

    def test_eq3_is_optimistic_lower_bound(self):
        # With realistic (edge-lossy) die counts, eq (1) >= eq (3):
        # the simplification direction §2.5 promises.
        from repro.wafer import gross_die_exact
        cm_sq = 8.0
        lam, sd, y, n_tr = 0.25, 500.0, 0.8, 1e7
        die_area = n_tr * sd * (lam * 1e-4) ** 2
        n_ch = gross_die_exact(WAFER_200MM, die_area)
        wafer_cost = cm_sq * WAFER_200MM.area_cm2
        eq1 = transistor_cost_wafer_view(wafer_cost, n_tr, n_ch, y)
        eq3 = transistor_cost(cm_sq, lam, sd, y)
        assert eq1 > eq3


class TestDieCost:
    def test_figure3_anchor(self):
        # The paper's affordable die: 3.4 cm^2 at 8 $/cm^2, Y=0.8 -> $34.
        # Build the (sd, N) pair giving exactly 3.4 cm^2 at 180 nm.
        n_tr = 21e6
        sd = 3.4 / (n_tr * (0.18e-4) ** 2)
        assert die_cost(8.0, 0.18, sd, n_tr, 0.8) == pytest.approx(34.0)

    def test_transistor_cost_consistency(self):
        # die cost / N_tr == transistor cost.
        n_tr = 1e7
        per_die = die_cost(8.0, 0.18, 300, n_tr, 0.8)
        per_tx = transistor_cost(8.0, 0.18, 300, 0.8)
        assert per_die / n_tr == pytest.approx(per_tx)


class TestGoodTransistorsPerWafer:
    def test_reciprocal_of_eq3(self):
        # good transistors * cost per transistor == wafer budget.
        area = WAFER_200MM.area_cm2
        n = good_transistors_per_wafer(area, 0.18, 300, 0.8)
        budget = 8.0 * area
        assert n * transistor_cost(8.0, 0.18, 300, 0.8) == pytest.approx(budget)

    def test_denser_harvests_more(self):
        area = WAFER_200MM.area_cm2
        assert good_transistors_per_wafer(area, 0.18, 150, 0.8) > \
            good_transistors_per_wafer(area, 0.18, 300, 0.8)


class TestSdForTransistorCost:
    def test_inverts_eq3(self):
        target = transistor_cost(8.0, 0.18, 300, 0.8)
        assert sd_for_transistor_cost(target, 8.0, 0.18, 0.8) == pytest.approx(300.0)

    def test_budget_scales_linearly(self):
        a = sd_for_transistor_cost(1e-6, 8.0, 0.18, 0.8)
        b = sd_for_transistor_cost(2e-6, 8.0, 0.18, 0.8)
        assert b == pytest.approx(2 * a)
