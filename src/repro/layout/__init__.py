"""Layout substrate: geometry, pattern extraction, regularity economics.

Implements the §3.2 program (regular structures from few unique
patterns) and the ref-[33] repetitive-pattern analysis it relies on.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "geometry": ("Rect", "bounding_box", "total_area"),
    "cells": ("Cell", "Instance", "Layout"),
    "patterns": (
        "Pattern", "PatternLibrary", "Window", "extract_patterns",
        "recommended_window",
    ),
    "regularity": (
        "CharacterizationCostModel", "RegularityReport", "regularity_report",
    ),
    "fabrics": (
        "memory_array", "random_logic_layout", "regular_fabric", "sram_cell",
        "standard_cell",
    ),
    "drc": ("MEAD_CONWAY_RULES", "DesignRules", "Violation", "check_rules"),
})

__all__ = [
    "Rect",
    "bounding_box",
    "total_area",
    "Cell",
    "Instance",
    "Layout",
    "Window",
    "Pattern",
    "PatternLibrary",
    "extract_patterns",
    "recommended_window",
    "CharacterizationCostModel",
    "RegularityReport",
    "regularity_report",
    "sram_cell",
    "standard_cell",
    "memory_array",
    "regular_fabric",
    "random_logic_layout",
    "DesignRules",
    "Violation",
    "check_rules",
    "MEAD_CONWAY_RULES",
]
