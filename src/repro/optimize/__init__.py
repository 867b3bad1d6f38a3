"""Cost-driven design optimization (paper §3.1, Figure 4)."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "sweep": (
        "SweepResult", "sd_grid", "sd_sweep", "sd_sweep_generalized",
        "volume_sweep",
    ),
    "optimum": (
        "OptimumResult", "optimal_sd", "optimal_sd_condition",
        "optimal_sd_generalized", "optimum_vs_volume",
    ),
    "sensitivity": ("SensitivityEntry", "parameter_elasticities", "tornado"),
    "pareto": ("DesignPoint", "evaluate_front", "evaluate_points", "knee_point",
               "pareto_front"),
    "node_choice": (
        "DEFAULT_NODE_LADDER_UM", "NodeChoice", "evaluate_nodes",
        "optimal_node",
    ),
})

__all__ = [
    "SweepResult",
    "sd_grid",
    "sd_sweep",
    "sd_sweep_generalized",
    "volume_sweep",
    "OptimumResult",
    "optimal_sd",
    "optimal_sd_generalized",
    "optimal_sd_condition",
    "optimum_vs_volume",
    "SensitivityEntry",
    "parameter_elasticities",
    "tornado",
    "DesignPoint",
    "evaluate_points",
    "evaluate_front",
    "pareto_front",
    "knee_point",
    "NodeChoice",
    "evaluate_nodes",
    "optimal_node",
    "DEFAULT_NODE_LADDER_UM",
]
