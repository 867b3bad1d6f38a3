"""Design-density metrics and analytics (paper §2.2, eq. 2, Figure 1)."""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "metrics": (
        "area_from_sd", "decompression_index", "density_index",
        "feature_from_sd", "transistor_density", "transistor_density_from_sd",
        "transistors_from_sd",
    ),
    "decomposition": (
        "SplitDensity", "blend_sd", "memory_fraction_for_target_sd",
    ),
    "trends": (
        "DensityProgress", "TrendPoint", "VendorTrend",
        "density_progress_decomposition", "extract_points",
        "sd_feature_rank_correlation", "sd_vs_feature_fit", "sd_vs_year_fit",
        "vendor_density_advantage", "vendor_trends",
    ),
})

__all__ = [
    "decompression_index",
    "density_index",
    "transistor_density",
    "transistor_density_from_sd",
    "area_from_sd",
    "transistors_from_sd",
    "feature_from_sd",
    "SplitDensity",
    "blend_sd",
    "memory_fraction_for_target_sd",
    "TrendPoint",
    "VendorTrend",
    "extract_points",
    "vendor_trends",
    "sd_vs_feature_fit",
    "sd_vs_year_fit",
    "sd_feature_rank_correlation",
    "vendor_density_advantage",
    "DensityProgress",
    "density_progress_decomposition",
]
