"""Datasets behind the paper's figures.

* :data:`TABLE_A1` / :func:`load_table_a1` / :class:`DesignRegistry` —
  the 49 published designs of Table A1 (Figure 1);
* :data:`ITRS_1999` / :func:`load_itrs_1999` — the reconstructed
  ITRS-1999 roadmap nodes (Figures 2-3).
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "records": ("DesignRecord", "DeviceCategory", "Provenance", "RoadmapNode"),
    "registry": ("DesignRegistry",),
    "table_a1": ("TABLE_A1", "load_table_a1"),
    "itrs1999": (
        "ASSUMED_YIELD", "ITRS_1999", "MANUFACTURING_COST_PER_CM2_USD",
        "MPU_DIE_COST_1999_USD", "load_itrs_1999", "node_for_year",
    ),
    "io": (
        "designs_from_csv", "designs_to_csv", "roadmap_from_csv",
        "roadmap_to_csv",
    ),
})

__all__ = [
    "DesignRecord",
    "DeviceCategory",
    "Provenance",
    "RoadmapNode",
    "DesignRegistry",
    "TABLE_A1",
    "load_table_a1",
    "ITRS_1999",
    "load_itrs_1999",
    "node_for_year",
    "MPU_DIE_COST_1999_USD",
    "MANUFACTURING_COST_PER_CM2_USD",
    "ASSUMED_YIELD",
    "designs_to_csv",
    "designs_from_csv",
    "roadmap_to_csv",
    "roadmap_from_csv",
]
