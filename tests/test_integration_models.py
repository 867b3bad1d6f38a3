"""Cross-model consistency: eq. (7) degenerates to eq. (4) degenerates to eq. (3).

The paper presents its models as a refinement tower; the implementations
must honour that. Configuring the generalized model's live dependencies
to constants must reproduce the fixed-parameter total model exactly,
which in turn reproduces bare manufacturing cost at infinite volume.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import (
    GeneralizedCostModel,
    TotalCostModel,
    transistor_cost,
)
from repro.wafer import WaferCostModel
from repro.yieldmodels import CompositeYield, CriticalAreaModel, DefectDensityModel, YieldLearningCurve


def frozen_generalized(y_target: float, cm_sq: float) -> GeneralizedCostModel:
    """Eq. (7) with every live dependency pinned to a constant."""
    flat_wafer = WaferCostModel(
        base_cost_per_cm2=cm_sq,
        feature_exponent=0.0,
        wafer_area_exponent=0.0,
        volume_overhead=0.0,
        maturity_overhead=0.0,
    )
    # Vanishing critical area -> random yield = 1; Y comes from the
    # systematic factor alone.
    flat_yield = CompositeYield(
        defects=DefectDensityModel(feature_exponent=0.0),
        critical_area=CriticalAreaModel(saturation=1e-12),
        learning=YieldLearningCurve(initial_multiplier=1.0 + 1e-12),
        systematic_yield=y_target,
    )
    return GeneralizedCostModel(
        wafer_cost=flat_wafer,
        yield_model=flat_yield,
        include_masks=False,
    )


#: Operating points drawn over paper-era magnitudes, ``s_d`` above ``s_d0``.
POINTS = dict(sd=st.floats(min_value=101.0, max_value=5_000.0),
              n_tr=st.floats(min_value=1e4, max_value=1e9),
              lam=st.floats(min_value=0.03, max_value=1.0),
              nw=st.floats(min_value=10.0, max_value=1e7),
              y=st.floats(min_value=0.05, max_value=1.0),
              cm=st.floats(min_value=0.5, max_value=100.0))


class TestTowerConsistency:
    @settings(max_examples=100, deadline=None)
    @given(**POINTS)
    def test_generalized_matches_total_when_frozen(self, sd, n_tr, lam, nw, y, cm):
        frozen = frozen_generalized(y, cm)
        fixed = TotalCostModel(include_masks=False)
        a = frozen.transistor_cost(sd, n_tr, lam, nw)
        b = fixed.transistor_cost(sd, n_tr, lam, nw, y, cm)
        assert a == pytest.approx(b, rel=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(**POINTS)
    def test_frozen_breakdowns_match(self, sd, n_tr, lam, nw, y, cm):
        frozen = frozen_generalized(y, cm)
        fixed = TotalCostModel(include_masks=False)
        ba = frozen.breakdown(sd, n_tr, lam, nw)
        bb = fixed.breakdown(sd, n_tr, lam, nw, y, cm)
        assert ba.manufacturing == pytest.approx(bb.manufacturing, rel=1e-6)
        assert ba.design == pytest.approx(bb.design, rel=1e-6)

    @pytest.mark.parametrize("sd,n_tr,lam,nw,y,cm", [
        (150.0, 1e7, 0.18, 5_000, 0.4, 8.0),
        (300.0, 1e7, 0.18, 5_000, 0.4, 8.0),
        (700.0, 5e7, 0.13, 50_000, 0.9, 12.0),
    ])
    def test_total_matches_eq3_at_infinite_volume(self, sd, n_tr, lam, nw, y, cm):
        fixed = TotalCostModel(include_masks=False)
        total = fixed.transistor_cost(sd, n_tr, lam, 1e15, y, cm)
        assert total == pytest.approx(transistor_cost(cm, lam, sd, y), rel=1e-6)

    def test_frozen_yield_is_the_target(self):
        frozen = frozen_generalized(0.4, 8.0)
        y = frozen.yield_at(1e7, 300, 0.18, 5_000)
        assert y == pytest.approx(0.4, rel=1e-6)

    def test_frozen_cm_sq_is_flat(self):
        frozen = frozen_generalized(0.4, 8.0)
        for lam in (0.5, 0.18, 0.05):
            for nw in (100, 1e6):
                assert float(frozen.cm_sq(lam, nw)) == pytest.approx(8.0, rel=1e-9)

    def test_unfrozen_model_differs(self):
        # Sanity: the default generalized model is NOT the frozen one.
        from repro.cost import DEFAULT_GENERALIZED_MODEL
        frozen = frozen_generalized(0.4, 8.0)
        a = DEFAULT_GENERALIZED_MODEL.transistor_cost(300, 1e7, 0.18, 5_000)
        b = frozen.transistor_cost(300, 1e7, 0.18, 5_000)
        assert a != pytest.approx(b, rel=1e-3)

    def test_tower_ordering_under_defaults(self):
        # Under default (non-frozen) settings, restoring omitted effects
        # only raises cost at equal nominal parameters: eq.(3) <= eq.(4).
        sd, n_tr, lam, nw, y, cm = 300.0, 1e7, 0.18, 5_000, 0.8, 8.0
        eq3 = transistor_cost(cm, lam, sd, y)
        eq4 = TotalCostModel(include_masks=False).transistor_cost(sd, n_tr, lam, nw, y, cm)
        eq4_masks = TotalCostModel(include_masks=True).transistor_cost(sd, n_tr, lam, nw, y, cm)
        assert eq3 < eq4 < eq4_masks
