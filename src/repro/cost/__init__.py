"""The paper's cost models — eqs. (1) and (3)-(7).

* :mod:`~repro.cost.manufacturing` — eqs. (1), (3): silicon-only cost;
* :mod:`~repro.cost.design` — eq. (6): iteration-driven design cost;
* :mod:`~repro.cost.masks` / :mod:`~repro.cost.test` — the ``C_MA``
  term of eq. (5) and the §2.5 test-cost extension;
* :mod:`~repro.cost.total` — eqs. (4)+(5): total transistor cost;
* :mod:`~repro.cost.utilization` — the §2.5 ``Y → uY`` substitution;
* :mod:`~repro.cost.generalized` — eq. (7) with live dependencies.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "manufacturing": (
        "die_cost", "good_transistors_per_wafer", "sd_for_transistor_cost",
        "transistor_cost", "transistor_cost_wafer_view",
    ),
    "design": ("DesignCostModel", "PAPER_DESIGN_COST_MODEL"),
    "masks": (
        "DEFAULT_MASK_COST_MODEL", "MaskSetCostModel", "layer_count_estimate",
    ),
    "test": ("DEFAULT_TEST_COST_MODEL", "TestCostModel"),
    "total": ("PAPER_FIGURE4_MODEL", "CostBreakdown", "TotalCostModel"),
    "utilization": (
        "UtilizedDevice", "effective_yield", "fpga_vs_asic_crossover",
    ),
    "generalized": ("DEFAULT_GENERALIZED_MODEL", "GeneralizedCostModel"),
})

__all__ = [
    "transistor_cost",
    "transistor_cost_wafer_view",
    "die_cost",
    "good_transistors_per_wafer",
    "sd_for_transistor_cost",
    "DesignCostModel",
    "PAPER_DESIGN_COST_MODEL",
    "MaskSetCostModel",
    "DEFAULT_MASK_COST_MODEL",
    "layer_count_estimate",
    "TestCostModel",
    "DEFAULT_TEST_COST_MODEL",
    "TotalCostModel",
    "PAPER_FIGURE4_MODEL",
    "CostBreakdown",
    "UtilizedDevice",
    "effective_yield",
    "fpga_vs_asic_crossover",
    "GeneralizedCostModel",
    "DEFAULT_GENERALIZED_MODEL",
]
