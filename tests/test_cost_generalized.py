"""Eq.-(7) generalized-model tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import DEFAULT_GENERALIZED_MODEL, GeneralizedCostModel, TestCostModel
from repro.errors import DomainError
from repro.yieldmodels import CompositeYield, PoissonYield


class TestLiveDependencies:
    def test_cm_sq_responds_to_volume(self):
        m = DEFAULT_GENERALIZED_MODEL
        assert m.cm_sq(0.18, 100) > m.cm_sq(0.18, 1e6)

    def test_cm_sq_responds_to_node(self):
        m = DEFAULT_GENERALIZED_MODEL
        assert m.cm_sq(0.09, 1e6) > m.cm_sq(0.18, 1e6)

    def test_yield_responds_to_design_density(self):
        m = DEFAULT_GENERALIZED_MODEL
        y_dense = m.yield_at(1e7, 120, 0.18, 1e5)
        y_sparse = m.yield_at(1e7, 600, 0.18, 1e5)
        assert 0 < y_dense <= 1 and 0 < y_sparse <= 1
        assert y_dense != y_sparse

    def test_cd_sq_matches_eq5(self):
        m = GeneralizedCostModel(include_masks=False)
        cd = m.cd_sq(1e7, 300, 0.18, 5000)
        expected = m.design_model.cost(1e7, 300) / (5000 * m.wafer.area_cm2)
        assert cd == pytest.approx(expected)


class TestTransistorCost:
    def test_positive_and_finite(self):
        c = DEFAULT_GENERALIZED_MODEL.transistor_cost(300, 1e7, 0.18, 5000)
        assert np.isfinite(c) and c > 0

    def test_u_curve(self):
        m = DEFAULT_GENERALIZED_MODEL
        sd = np.geomspace(105, 2000, 300)
        c = m.transistor_cost(sd, 1e7, 0.18, 5000)
        i = int(np.argmin(c))
        assert 0 < i < len(sd) - 1

    def test_volume_lowers_cost(self):
        m = DEFAULT_GENERALIZED_MODEL
        assert m.transistor_cost(300, 1e7, 0.18, 1e6) < \
            m.transistor_cost(300, 1e7, 0.18, 1e3)

    def test_immature_process_costlier(self):
        m = DEFAULT_GENERALIZED_MODEL
        assert m.transistor_cost(300, 1e7, 0.18, 5000, maturity=0.2) > \
            m.transistor_cost(300, 1e7, 0.18, 5000, maturity=1.0)

    def test_utilization_divides(self):
        half = GeneralizedCostModel(utilization=0.5)
        full = GeneralizedCostModel(utilization=1.0)
        assert half.transistor_cost(300, 1e7, 0.18, 5000) == pytest.approx(
            2 * full.transistor_cost(300, 1e7, 0.18, 5000))

    def test_statistic_swap_changes_cost(self):
        poisson = GeneralizedCostModel(yield_model=CompositeYield(statistic=PoissonYield()))
        default = DEFAULT_GENERALIZED_MODEL
        c_p = poisson.transistor_cost(300, 1e8, 0.13, 5000)
        c_d = default.transistor_cost(300, 1e8, 0.13, 5000)
        assert c_p > c_d  # Poisson is the pessimistic statistic

    def test_rejects_sd_below_bound(self):
        with pytest.raises(DomainError):
            DEFAULT_GENERALIZED_MODEL.transistor_cost(50, 1e7, 0.18, 5000)


CONFIGS = {
    "default": DEFAULT_GENERALIZED_MODEL,
    "test_u07": GeneralizedCostModel(test_model=TestCostModel(), utilization=0.7),
    "no_masks_poisson": GeneralizedCostModel(
        include_masks=False, yield_model=CompositeYield(statistic=PoissonYield())),
}


class TestBreakdown:
    @settings(max_examples=200, deadline=None)
    @given(config=st.sampled_from(sorted(CONFIGS)),
           sd=st.floats(min_value=100.0 + 1e-9, max_value=1e5),
           n_transistors=st.floats(min_value=1e3, max_value=1e10),
           feature_um=st.floats(min_value=0.01, max_value=2.0),
           n_wafers=st.floats(min_value=1.0, max_value=1e7),
           maturity=st.floats(min_value=0.01, max_value=1.0))
    def test_total_is_transistor_cost(self, config, sd, **point):
        m = CONFIGS[config]
        try:
            b = m.breakdown(sd, **point)
        except DomainError as exc:  # e.g. a huge die's yield underflows to 0
            with pytest.raises(DomainError) as raised:
                m.transistor_cost(sd, **point)
            assert str(raised.value) == str(exc)
            return
        assert b.total == m.transistor_cost(sd, **point)
        assert b.total == pytest.approx(
            b.manufacturing + b.design + b.masks + b.test, rel=1e-12)

    def test_mask_component_positive_by_default(self):
        b = DEFAULT_GENERALIZED_MODEL.breakdown(300, 1e7, 0.18, 5000)
        assert b.masks > 0

    def test_test_model_optional(self):
        with_test = GeneralizedCostModel(test_model=TestCostModel())
        b = with_test.breakdown(300, 1e7, 0.18, 5000)
        assert b.test > 0


class TestNanometerChallenge:
    def test_same_design_smaller_node_cheaper_per_transistor(self):
        # Scaling still pays in the model — Moore's law economics — but
        # less than the raw lambda^2 shrink because Cm_sq and defects rise.
        m = DEFAULT_GENERALIZED_MODEL
        c180 = m.transistor_cost(300, 1e7, 0.18, 1e5)
        c90 = m.transistor_cost(300, 1e7, 0.09, 1e5)
        assert c90 < c180
        assert c90 > c180 / 4  # less than the ideal 4x shrink win
