"""Provenance tests: gating, attachment, and cost-model coverage."""

import numpy as np
import pytest

from repro import obs
from repro.cost import (
    DEFAULT_GENERALIZED_MODEL,
    DEFAULT_MASK_COST_MODEL,
    DEFAULT_TEST_COST_MODEL,
    PAPER_DESIGN_COST_MODEL,
    PAPER_FIGURE4_MODEL,
    UtilizedDevice,
    die_cost,
    effective_yield,
    fpga_vs_asic_crossover,
    good_transistors_per_wafer,
    sd_for_transistor_cost,
    transistor_cost,
    transistor_cost_wafer_view,
)
from repro.obs.provenance import summarize_value


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate each test from global observability state."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestLedger:
    def test_disabled_records_nothing(self):
        assert obs.record_provenance("src", "3", {"sd": 1}) is None
        assert len(obs.get_ledger()) == 0

    def test_enabled_records_and_summarises(self):
        with obs.enabled():
            prov = obs.record_provenance(
                "src", "3", {"sd": 300, "grid": np.arange(10.0)})
        assert prov is not None
        assert prov.params["sd"] == 300
        assert prov.params["grid"] == {"shape": [10], "min": 0.0, "max": 9.0}
        assert obs.get_ledger().records == [prov]

    def test_queries(self):
        with obs.enabled():
            obs.record_provenance("cost.a", "3")
            obs.record_provenance("cost.b", "4")
            obs.record_provenance("data.c", "table_a1")
        ledger = obs.get_ledger()
        assert len(ledger.by_equation("3")) == 1
        assert len(ledger.by_source("cost.")) == 2
        assert ledger.equations_used() == ["3", "4", "table_a1"]

    def test_cap_drops_and_counts(self):
        ledger = obs.get_ledger()
        ledger.max_records = 2
        try:
            with obs.enabled():
                for _ in range(4):
                    obs.record_provenance("src", "3")
            assert len(ledger) == 2
            assert ledger.dropped == 2
        finally:
            ledger.max_records = 10_000

    def test_summarize_value_passthrough_and_repr(self):
        assert summarize_value(3.5) == 3.5
        assert summarize_value("x") == "x"
        assert summarize_value(None) is None
        assert "DesignCostModel" in summarize_value(PAPER_DESIGN_COST_MODEL)


class TestAttachment:
    def test_attach_to_frozen_dataclass_result(self):
        from repro.optimize import sd_sweep
        with obs.enabled():
            result = sd_sweep(PAPER_FIGURE4_MODEL, 1e7, 0.18, 5000, 0.4, 8.0)
        prov = obs.provenance_of(result)
        assert prov is not None
        assert prov.equation == "4"
        assert prov.params["n_transistors"] == 1e7

    def test_optimum_result_carries_provenance(self):
        from repro.optimize import optimal_sd
        with obs.enabled():
            result = optimal_sd(PAPER_FIGURE4_MODEL, 1e7, 0.18, 5000, 0.4, 8.0)
        prov = obs.provenance_of(result)
        assert prov is not None
        assert prov.equation == "4"

    def test_attach_tolerates_unattachable_objects(self):
        with obs.enabled():
            prov = obs.record_provenance("src", "3")
        assert obs.attach(1.5, prov) == 1.5
        assert obs.provenance_of(1.5) is None

    def test_disabled_attaches_nothing(self):
        from repro.optimize import sd_sweep
        result = sd_sweep(PAPER_FIGURE4_MODEL, 1e7, 0.18, 5000, 0.4, 8.0)
        assert obs.provenance_of(result) is None


class TestCostModelCoverage:
    """Every public cost model evaluation records equation + parameters."""

    def test_every_cost_entry_point_records_provenance(self):
        fpga = UtilizedDevice(name="FPGA", sd=600.0, utilization=0.5)
        calls = [
            # (expected source fragment, expected equation, thunk)
            ("manufacturing.transistor_cost_wafer_view", "1",
             lambda: transistor_cost_wafer_view(3000.0, 1e7, 100, 0.8)),
            ("manufacturing.transistor_cost", "3",
             lambda: transistor_cost(8.0, 0.18, 300, 0.8)),
            ("manufacturing.die_cost", "3",
             lambda: die_cost(8.0, 0.18, 300, 1e7, 0.8)),
            ("manufacturing.good_transistors_per_wafer", "3",
             lambda: good_transistors_per_wafer(300.0, 0.18, 300, 0.8)),
            ("manufacturing.sd_for_transistor_cost", "3",
             lambda: sd_for_transistor_cost(1e-6, 8.0, 0.18, 0.8)),
            ("design.DesignCostModel.cost", "6",
             lambda: PAPER_DESIGN_COST_MODEL.cost(1e7, 300)),
            ("design.DesignCostModel.sd_for_budget", "6",
             lambda: PAPER_DESIGN_COST_MODEL.sd_for_budget(1e7, 1e7)),
            ("masks.MaskSetCostModel.cost", "5",
             lambda: DEFAULT_MASK_COST_MODEL.cost(0.18)),
            ("test.TestCostModel.cost_per_cm2", "s2.5",
             lambda: DEFAULT_TEST_COST_MODEL.cost_per_cm2(300, 0.18, 1e7)),
            ("total.TotalCostModel.transistor_cost", "4",
             lambda: PAPER_FIGURE4_MODEL.transistor_cost(
                 300, 1e7, 0.18, 5000, 0.4, 8.0)),
            ("total.TotalCostModel.sd_curve", "4",
             lambda: PAPER_FIGURE4_MODEL.sd_curve(1e7, 0.18, 5000, 0.4, 8.0)),
            ("total.TotalCostModel.design_cost_per_cm2", "5",
             lambda: PAPER_FIGURE4_MODEL.design_cost_per_cm2(1e7, 300, 0.18, 5000)),
            ("total.TotalCostModel.breakdown", "4",
             lambda: PAPER_FIGURE4_MODEL.breakdown(300, 1e7, 0.18, 5000, 0.4, 8.0)),
            ("utilization.effective_yield", "s2.5",
             lambda: effective_yield(0.8, 0.5)),
            ("utilization.UtilizedDevice.cost_per_used_transistor", "4",
             lambda: fpga.cost_per_used_transistor(1e7, 0.18, 5000, 0.8, 8.0)),
            ("utilization.fpga_vs_asic_crossover", "4",
             lambda: fpga_vs_asic_crossover(1e7, 0.18, 0.8, 8.0, fpga)),
            ("generalized.GeneralizedCostModel.transistor_cost", "7",
             lambda: DEFAULT_GENERALIZED_MODEL.transistor_cost(
                 300, 1e7, 0.18, 5000)),
            ("generalized.GeneralizedCostModel.breakdown", "7",
             lambda: DEFAULT_GENERALIZED_MODEL.breakdown(300, 1e7, 0.18, 5000)),
        ]
        for fragment, equation, thunk in calls:
            obs.reset()
            with obs.enabled():
                thunk()
            matching = [
                r for r in obs.get_ledger().records
                if fragment in r.source and r.equation == equation
            ]
            assert matching, f"no provenance for {fragment} (eq {equation})"
            assert matching[0].params, f"empty params for {fragment}"

    def test_dataset_provenance_names_rows(self):
        from repro.data import DesignRegistry, load_itrs_1999
        with obs.enabled():
            DesignRegistry.table_a1()
            load_itrs_1999()
        ledger = obs.get_ledger()
        [table] = [r for r in ledger.records if r.dataset == "table_a1"]
        assert len(table.rows) == 49
        [itrs] = [r for r in ledger.records if r.dataset == "itrs1999"]
        assert 1999 in itrs.rows
