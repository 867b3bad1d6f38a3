"""Standard wafer formats.

Eq. (5) of the paper normalises design and mask costs by the fabricated
silicon ``N_w · A_w``; eq. (7) makes ``Cm_sq`` and ``Y`` functions of
the wafer area ``A_w``. This module supplies the standard formats of
the paper's era (150/200 mm in production, 300 mm ramping) plus the
geometric parameters needed to count dice: edge exclusion and scribe
(saw) lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import WAFER_200MM_DIAMETER_MM
from ..errors import DomainError
from ..validation import check_nonnegative, check_positive

__all__ = ["WaferSpec", "WAFER_150MM", "WAFER_200MM", "WAFER_300MM", "standard_wafers"]


@dataclass(frozen=True)
class WaferSpec:
    """A wafer format.

    Attributes
    ----------
    name:
        Human-readable label, e.g. ``"200mm"``.
    diameter_mm:
        Physical wafer diameter in mm.
    edge_exclusion_mm:
        Radial band at the wafer edge where dice are not usable
        (handling, resist bead). Typical 3 mm.
    scribe_mm:
        Saw-lane width added around each die when stepping, in mm.
        Typical 0.1 mm (100 µm).
    """

    name: str
    diameter_mm: float
    edge_exclusion_mm: float = 3.0
    scribe_mm: float = 0.1

    def __post_init__(self) -> None:
        check_positive(self.diameter_mm, "diameter_mm")
        check_nonnegative(self.edge_exclusion_mm, "edge_exclusion_mm")
        check_nonnegative(self.scribe_mm, "scribe_mm")
        if 2 * self.edge_exclusion_mm >= self.diameter_mm:
            raise DomainError("edge exclusion leaves no usable wafer")

    @property
    def radius_cm(self) -> float:
        """Physical radius in cm."""
        return self.diameter_mm / 20.0

    @property
    def usable_radius_cm(self) -> float:
        """Radius of the printable region in cm (after edge exclusion)."""
        return (self.diameter_mm / 2.0 - self.edge_exclusion_mm) / 10.0

    @property
    def area_cm2(self) -> float:
        """Full wafer area ``A_w`` in cm² (used by eq. 5)."""
        return math.pi * self.radius_cm**2

    @property
    def usable_area_cm2(self) -> float:
        """Printable area in cm² (after edge exclusion)."""
        return math.pi * self.usable_radius_cm**2


WAFER_150MM = WaferSpec(name="150mm", diameter_mm=150.0)
WAFER_200MM = WaferSpec(name="200mm", diameter_mm=WAFER_200MM_DIAMETER_MM)
WAFER_300MM = WaferSpec(name="300mm", diameter_mm=300.0)


def standard_wafers() -> list[WaferSpec]:
    """The standard formats, smallest first."""
    return [WAFER_150MM, WAFER_200MM, WAFER_300MM]
