"""Critical-area estimation — connecting yield to *design density*.

Eq. (7) lists the design decompression index ``s_d`` among the
arguments of ``Y(...)``: two dice of equal area but different layout
density do **not** yield alike, because what kills a die is a defect
landing on *critical area* (where it shorts or opens a pattern), not on
empty field. Refs [31], [32], [34] build exactly this bridge; we
substitute the standard analytic critical-area model.

For a defect size distribution ``p(x) = 2 x_0²/x³`` (x ≥ x_0, the
classic 1/x³ spectrum normalised at the critical size ``x_0 ≈ λ``) and
a layout of wire width/spacing ``w ≈ s·λ``, the average critical-area
fraction of a *drawn* region integrates to ``θ ≈ x_0/(2w) ⋅ c`` — i.e.
inversely proportional to the drawn pitch in λ units. We expose this
as:

    ``A_crit = A_die · occupancy(s_d) · kill_fraction``

where ``occupancy(s_d) = s_ref/s_d`` (denser layouts put more pattern
in harm's way) saturating at 1, and ``kill_fraction`` calibrates the
per-pattern sensitivity. The resulting faults-per-die
``A_crit · D`` feeds any :class:`~repro.yieldmodels.models.YieldModel`.

This reproduces the paper's §3.1 trade-off: a *denser* design (smaller
``s_d``) buys a smaller die but a larger critical-area fraction, so
yield does not improve as fast as area shrinks — which is why "neither
the smallest die size nor maximum yield" is the right objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..validation import check_fraction, check_positive

__all__ = ["CriticalAreaModel", "DEFAULT_CRITICAL_AREA_MODEL"]


@dataclass(frozen=True)
class CriticalAreaModel:
    """Critical area as a function of die area and design density.

    Attributes
    ----------
    reference_sd:
        ``s_d`` at which the layout is considered "fully occupied"
        (occupancy = ``saturation``). Default 100 — the paper's
        full-custom bound ``s_d0``.
    saturation:
        Critical-area fraction of a fully dense layout. Default 0.6
        (not all dense pattern is short/open-sensitive).
    density_exponent:
        Sub-linearity of the occupancy fall-off:
        ``occupancy = min(1, (s_ref/s_d)^γ)``. Default 0.8 < 1: a 4×
        sparser design exposes *more* than 1/4 of the pattern, because
        its wires still traverse the whole (larger) die even where
        devices thin out. With γ < 1 the expected fault count per die
        grows mildly with ``s_d`` (∝ ``s_d^(1−γ)``), giving eq. (7) a
        real ``Y(s_d)`` dependence: sparser dice are *bigger* targets.
    """

    reference_sd: float = 100.0
    saturation: float = 0.6
    density_exponent: float = 0.8

    def __post_init__(self) -> None:
        check_positive(self.reference_sd, "reference_sd")
        check_fraction(self.saturation, "saturation")
        check_positive(self.density_exponent, "density_exponent")

    def occupancy(self, sd):
        """Pattern-occupancy fraction of the drawn area at density ``s_d``.

        ``min(1, (s_ref/s_d)^γ)`` — a design at the full-custom bound
        is fully occupied; sparser designs expose sub-linearly less.
        """
        sd = check_positive(sd, "sd")
        ratio = self.reference_sd / np.asarray(sd, dtype=float)
        occ = np.minimum(1.0, ratio**self.density_exponent)
        return occ if np.ndim(sd) else float(occ)

    def critical_fraction(self, sd):
        """Fraction of die area that is defect-sensitive at density ``s_d``."""
        result = self.saturation * self.occupancy(sd)
        return result if np.ndim(sd) else float(result)

    def critical_area_cm2(self, area_cm2, sd):
        """Critical area of a die: ``A_die · critical_fraction(s_d)``."""
        area_cm2 = check_positive(area_cm2, "area_cm2")
        result = np.asarray(area_cm2, dtype=float) * self.critical_fraction(sd)
        return result if (np.ndim(area_cm2) or np.ndim(sd)) else float(result)

    def faults_per_die(self, area_cm2, sd, defect_density_per_cm2):
        """Expected kill-fault count ``A_crit · D`` for a die."""
        d = check_positive(defect_density_per_cm2, "defect_density_per_cm2")
        result = np.asarray(self.critical_area_cm2(area_cm2, sd)) * d
        return result if (np.ndim(area_cm2) or np.ndim(sd) or np.ndim(d)) else float(result)


DEFAULT_CRITICAL_AREA_MODEL = CriticalAreaModel()
