"""Yield substrate: defect statistics, scaling, learning, composites.

Implements the ``Y(A_w, λ, N_w, s_d, N_tr)`` dependency of the paper's
generalized cost model (eq. 7), substituting for refs [31], [32], [34].
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "models": (
        "MurphyYield", "NegativeBinomialYield", "PoissonYield", "SeedsYield",
        "YieldModel", "bose_einstein", "yield_model",
    ),
    "defects": ("DEFAULT_DEFECT_MODEL", "DefectDensityModel"),
    "critical_area": ("DEFAULT_CRITICAL_AREA_MODEL", "CriticalAreaModel"),
    "learning": ("DEFAULT_LEARNING_CURVE", "YieldLearningCurve"),
    "composite": ("DEFAULT_COMPOSITE_YIELD", "CompositeYield"),
    "simulation": ("DefectField", "WaferYieldExperiment", "simulated_yield"),
    "layout_critical_area": (
        "ShortCriticalArea", "critical_area_curve", "expected_short_faults",
    ),
})

__all__ = [
    "YieldModel",
    "PoissonYield",
    "MurphyYield",
    "SeedsYield",
    "NegativeBinomialYield",
    "bose_einstein",
    "yield_model",
    "DefectDensityModel",
    "DEFAULT_DEFECT_MODEL",
    "CriticalAreaModel",
    "DEFAULT_CRITICAL_AREA_MODEL",
    "YieldLearningCurve",
    "DEFAULT_LEARNING_CURVE",
    "CompositeYield",
    "DEFAULT_COMPOSITE_YIELD",
    "DefectField",
    "WaferYieldExperiment",
    "simulated_yield",
    "ShortCriticalArea",
    "critical_area_curve",
    "expected_short_faults",
]
