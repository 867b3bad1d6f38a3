"""Wafer substrate: formats, die-per-wafer geometry, and wafer cost.

Supplies ``N_ch`` of eq. (1), ``A_w`` of eq. (5) and the
``Cm_sq(A_w, λ, N_w)`` dependency of eq. (7).
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "specs": (
        "WAFER_150MM", "WAFER_200MM", "WAFER_300MM", "WaferSpec",
        "standard_wafers",
    ),
    "geometry": (
        "die_dimensions_cm", "gross_die_area_ratio", "gross_die_classic",
        "gross_die_exact", "gross_die_per_wafer",
    ),
    "cost": ("DEFAULT_WAFER_COST_MODEL", "WaferCostModel"),
})

__all__ = [
    "WaferSpec",
    "WAFER_150MM",
    "WAFER_200MM",
    "WAFER_300MM",
    "standard_wafers",
    "die_dimensions_cm",
    "gross_die_area_ratio",
    "gross_die_classic",
    "gross_die_exact",
    "gross_die_per_wafer",
    "WaferCostModel",
    "DEFAULT_WAFER_COST_MODEL",
]
