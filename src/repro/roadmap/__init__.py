"""ITRS roadmap analytics (paper §2.2.3, Figures 2-3)."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "scaling": (
        "MOORE_DOUBLING_MONTHS", "ScalingLaw", "interpolate_nodes",
        "node_sequence",
    ),
    "constant_cost": (
        "PAPER_FIGURE3_ASSUMPTIONS", "ConstantCostAssumptions",
        "ConstantCostPoint", "constant_cost_sd", "constant_cost_series",
    ),
    "feasibility": ("FeasibilityPoint", "feasibility_report"),
    "scenarios": ("SCENARIO_NAMES", "Scenario", "scenario", "scenario_series"),
})

__all__ = [
    "ScalingLaw",
    "MOORE_DOUBLING_MONTHS",
    "node_sequence",
    "interpolate_nodes",
    "ConstantCostAssumptions",
    "ConstantCostPoint",
    "PAPER_FIGURE3_ASSUMPTIONS",
    "constant_cost_sd",
    "constant_cost_series",
    "FeasibilityPoint",
    "feasibility_report",
    "Scenario",
    "scenario",
    "scenario_series",
    "SCENARIO_NAMES",
]
