"""Design-flow substrate: iterations, timing closure, cost calibration.

Implements §2.4's causal chain — prediction error → failed iterations
→ design cost — and recovers eq.-(6) constants from simulated projects
(the substitution for the paper's private calibration data).
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "timing": ("TimingClosureModel", "normal_cdf"),
    "iteration": ("IterationCostModel",),
    "simulator": ("DesignFlowSimulator", "ProjectSample"),
    "calibration": ("CalibrationResult", "fit_design_cost_model"),
    "stages": (
        "DEFAULT_STAGES", "Stage", "StagedFlowModel", "StagedFlowResult",
    ),
})

__all__ = [
    "TimingClosureModel",
    "normal_cdf",
    "IterationCostModel",
    "DesignFlowSimulator",
    "ProjectSample",
    "CalibrationResult",
    "fit_design_cost_model",
    "Stage",
    "StagedFlowModel",
    "StagedFlowResult",
    "DEFAULT_STAGES",
]
