"""Scenario facade tests — the documented entry point prices correctly.

:func:`repro.api.evaluate` / :func:`evaluate_many` must agree exactly
with the underlying eq.-(4) model calls, group mixed-model batches
correctly, and honour the MASK/COLLECT error policies with legacy
diagnostics.
"""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from repro import Scenario, ScenarioResult, evaluate, evaluate_many
from repro.constants import ASSUMED_YIELD, MANUFACTURING_COST_PER_CM2_USD
from repro.cost import (
    PAPER_FIGURE4_MODEL,
    DesignCostModel,
    MaskSetCostModel,
    TestCostModel,
    TotalCostModel,
)
from repro.data import load_itrs_1999
from repro.density import area_from_sd
from repro.errors import CollectedErrors, DomainError
from repro.robust import ErrorPolicy
from repro.wafer import WAFER_300MM

BASE = Scenario(n_transistors=10e6, feature_um=0.18, sd=300.0,
                n_wafers=5_000.0, yield_fraction=0.4, cost_per_cm2=8.0)


class TestScenarioRecord:
    def test_defaults_are_the_paper_anchors(self):
        scn = Scenario(n_transistors=10e6, feature_um=0.18)
        assert scn.sd == 300.0
        assert scn.n_wafers == 5_000.0
        assert scn.yield_fraction == ASSUMED_YIELD
        assert scn.cost_per_cm2 == MANUFACTURING_COST_PER_CM2_USD
        assert scn.model is PAPER_FIGURE4_MODEL
        assert scn.wafer is None and scn.label == ""

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            BASE.sd = 400.0

    def test_replace_returns_modified_copy(self):
        changed = BASE.replace(sd=450.0, label="dense")
        assert changed.sd == 450.0 and changed.label == "dense"
        assert BASE.sd == 300.0
        assert changed.n_transistors == BASE.n_transistors

    def test_cost_model_without_override_is_the_model(self):
        assert BASE.cost_model is PAPER_FIGURE4_MODEL

    def test_cost_model_applies_wafer_override(self):
        scn = BASE.replace(wafer=WAFER_300MM)
        assert scn.cost_model.wafer is WAFER_300MM
        assert scn.cost_model.design_model is PAPER_FIGURE4_MODEL.design_model

    def test_from_node_pulls_the_roadmap_point(self):
        node = load_itrs_1999()[0]
        scn = Scenario.from_node(node)
        assert scn.n_transistors == node.mpu_transistors_m * 1e6
        assert scn.feature_um == node.feature_um
        assert scn.sd == pytest.approx(node.implied_sd())
        assert scn.label == f"node-{node.year}"

    def test_from_node_overrides_win(self):
        node = load_itrs_1999()[0]
        scn = Scenario.from_node(node, sd=500.0, label="custom")
        assert scn.sd == 500.0 and scn.label == "custom"

    def test_no_eager_validation(self):
        # Infeasible values must surface at evaluation, not construction.
        Scenario(n_transistors=10e6, feature_um=0.18, sd=-1.0)


class TestEvaluate:
    def test_matches_direct_model_call(self):
        result = evaluate(BASE)
        expected = PAPER_FIGURE4_MODEL.transistor_cost(
            300.0, 10e6, 0.18, 5_000.0, 0.4, 8.0)
        assert result.cost_per_transistor_usd == pytest.approx(
            expected, rel=1e-12)
        assert result.area_cm2 == pytest.approx(
            float(area_from_sd(300.0, 10e6, 0.18)), rel=1e-12)
        assert result.scenario is BASE

    def test_result_derived_quantities(self):
        result = evaluate(BASE)
        assert result.die_cost_usd == pytest.approx(
            result.cost_per_transistor_usd * 10e6)
        assert result.ok

    def test_infeasible_scenario_raises(self):
        with pytest.raises(DomainError):
            evaluate(BASE.replace(sd=50.0))


class TestEvaluateMany:
    def test_order_preserved_and_exact(self):
        scenarios = [BASE.replace(sd=sd) for sd in (200.0, 300.0, 600.0)]
        results = evaluate_many(scenarios)
        for scn, res in zip(scenarios, results):
            expected = PAPER_FIGURE4_MODEL.transistor_cost(
                scn.sd, scn.n_transistors, scn.feature_um, scn.n_wafers,
                scn.yield_fraction, scn.cost_per_cm2)
            assert res.scenario is scn
            assert res.cost_per_transistor_usd == pytest.approx(
                expected, rel=1e-12)

    def test_mixed_models_group_and_scatter_back(self):
        alt_model = replace(PAPER_FIGURE4_MODEL, utilization=0.5)
        scenarios = [BASE,
                     BASE.replace(model=alt_model, sd=400.0),
                     BASE.replace(sd=350.0),
                     BASE.replace(model=alt_model)]
        results = evaluate_many(scenarios)
        for scn, res in zip(scenarios, results):
            expected = scn.cost_model.transistor_cost(
                scn.sd, scn.n_transistors, scn.feature_um, scn.n_wafers,
                scn.yield_fraction, scn.cost_per_cm2)
            assert res.cost_per_transistor_usd == pytest.approx(
                expected, rel=1e-12)

    def test_wafer_override_changes_the_price(self):
        small, large = evaluate_many([BASE, BASE.replace(wafer=WAFER_300MM)])
        assert small.cost_per_transistor_usd != pytest.approx(
            large.cost_per_transistor_usd)

    def test_mask_yields_nan_and_diagnostics(self):
        diagnostics = []
        results = evaluate_many(
            [BASE, BASE.replace(sd=50.0), BASE.replace(sd=400.0)],
            policy=ErrorPolicy.MASK, diagnostics=diagnostics)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert math.isnan(results[1].cost_per_transistor_usd)
        assert math.isnan(results[1].die_cost_usd)
        assert len(diagnostics) == 1
        assert diagnostics[0].where == "api.evaluate_many"
        assert diagnostics[0].index == 1

    def test_mask_values_match_raise_on_good_points(self):
        scenarios = [BASE, BASE.replace(sd=50.0), BASE.replace(sd=400.0)]
        masked = evaluate_many(scenarios, policy=ErrorPolicy.MASK)
        strict = evaluate_many([scenarios[0], scenarios[2]])
        assert masked[0].cost_per_transistor_usd == pytest.approx(
            strict[0].cost_per_transistor_usd, rel=1e-12)
        assert masked[2].cost_per_transistor_usd == pytest.approx(
            strict[1].cost_per_transistor_usd, rel=1e-12)

    def test_collect_raises_aggregate(self):
        scenarios = [BASE.replace(sd=50.0), BASE, BASE.replace(sd=-3.0)]
        with pytest.raises(CollectedErrors, match=r"2 point\(s\) failed"):
            evaluate_many(scenarios, policy=ErrorPolicy.COLLECT)

    def test_empty_batch(self):
        assert evaluate_many([]) == []

    def test_accepts_any_iterable(self):
        results = evaluate_many(BASE.replace(sd=sd) for sd in (250.0, 500.0))
        assert len(results) == 2
        assert all(isinstance(res, ScenarioResult) for res in results)
        assert results[0].cost_per_transistor_usd > 0

    def test_backend_recorded(self):
        (result,) = evaluate_many([BASE])
        assert result.backend == "python"

    def test_matches_engine_grid_values(self):
        # evaluate_many under RAISE is one vectorized grid per model
        # group; spot-check against a literal numpy recomputation.
        scenarios = [BASE.replace(sd=sd) for sd in (220.0, 330.0, 440.0)]
        results = evaluate_many(scenarios)
        sds = np.array([s.sd for s in scenarios])
        expected = PAPER_FIGURE4_MODEL.transistor_cost(
            sds, 10e6, 0.18, 5_000.0, 0.4, 8.0)
        got = np.array([r.cost_per_transistor_usd for r in results])
        np.testing.assert_allclose(got, expected, rtol=1e-12)


class _FreeMasks(MaskSetCostModel):
    def cost(self, feature_um, n_layers=None):
        return 0.0


class _FlatDesign(DesignCostModel):
    def cost(self, n_transistors, sd):
        return 1e6


class _NoTest(TestCostModel):
    def cost_per_cm2(self, sd, feature_um, n_transistors):
        return 0.0


class _HalfPrice(TotalCostModel):
    def transistor_cost(self, *args):
        return 0.5 * super().transistor_cost(*args)


class _NoMasks(MaskSetCostModel):
    def cost(self, feature_um, n_layers=None):
        raise DomainError("no mask set for this node")


#: One model per component a subclass can reprice.
OVERRIDDEN = {
    "mask_model": TotalCostModel(mask_model=_FreeMasks()),
    "design_model": TotalCostModel(design_model=_FlatDesign()),
    "test_model": TotalCostModel(test_model=_NoTest()),
    "model": _HalfPrice(),
}


class TestOverriddenComponents:
    """A component that is not its exact stock type prices by its methods."""

    @pytest.mark.parametrize("component", sorted(OVERRIDDEN))
    def test_evaluate_returns_the_models_own_answer(self, component):
        model = OVERRIDDEN[component]
        assert model.scalar_params is None
        scenarios = [BASE.replace(model=model, sd=sd) for sd in (250.0, 600.0)]
        for scn, res in zip(scenarios, evaluate_many(scenarios)):
            assert res.cost_per_transistor_usd == model.transistor_cost(
                scn.sd, scn.n_transistors, scn.feature_um, scn.n_wafers,
                scn.yield_fraction, scn.cost_per_cm2)
            assert res.area_cm2 == evaluate(scn.replace(
                model=PAPER_FIGURE4_MODEL)).area_cm2

    def test_overridden_mask_cost_changes_the_price(self):
        stock = BASE.replace(model=TotalCostModel())
        free = BASE.replace(model=OVERRIDDEN["mask_model"])
        assert free.evaluate().cost_per_transistor_usd < \
            stock.evaluate().cost_per_transistor_usd
        assert free.evaluate().cost_per_transistor_usd == \
            BASE.replace(model=TotalCostModel(include_masks=False)) \
            .evaluate().cost_per_transistor_usd

    def test_unused_mask_subclass_keeps_the_scalar_path(self):
        model = TotalCostModel(mask_model=_FreeMasks(), include_masks=False)
        assert model.scalar_params == PAPER_FIGURE4_MODEL.scalar_params

    def test_failures_follow_the_policy(self):
        model = TotalCostModel(mask_model=_NoMasks())
        scenarios = [BASE, BASE.replace(model=model)]
        with pytest.raises(DomainError, match="no mask set"):
            evaluate_many(scenarios)
        diagnostics = []
        results = evaluate_many(scenarios, policy=ErrorPolicy.MASK,
                                diagnostics=diagnostics)
        assert results[0].ok and not results[1].ok
        [diagnostic] = diagnostics
        assert (diagnostic.where, diagnostic.parameter, diagnostic.index,
                diagnostic.message) == ("api.evaluate_many", "scenario", 1,
                                        "no mask set for this node")
