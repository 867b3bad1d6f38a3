"""Defect density and its technology scaling.

The fault density ``D`` that drives the yield models is not constant:
smaller features are killed by smaller particles, so the *effective*
fault density grows as λ shrinks even when the fab's physical particle
environment is unchanged. The standard particle-size model takes the
defect size distribution ``p(x) ∝ 1/x³`` above the critical size, which
makes the kill-fault density scale roughly as ``1/λ²`` for a fixed
particle spectrum; fab cleanliness improvements historically clawed
most of that back, leaving a milder net exponent.

:class:`DefectDensityModel` captures this with

    ``D(λ, m) = D_ref · (λ_ref/λ)^p · learning(m)``

where ``m`` is process maturity (see :mod:`repro.yieldmodels.learning`)
and ``p`` defaults to 1.0 — the net historical trend after cleanliness
gains. The anchor default ``D_ref = 0.5 /cm²`` at 0.18 µm puts a
3.4 cm² die (the paper's constant-cost die) at Y ≈ 0.30 Poisson /
0.46 NB(α=2), and a 0.5 cm² die at Y ≈ 0.78 — bracketing the paper's
``Y = 0.4 … 0.9`` operating points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..validation import check_nonnegative, check_positive

__all__ = ["DefectDensityModel", "DEFAULT_DEFECT_MODEL"]


@dataclass(frozen=True)
class DefectDensityModel:
    """Feature-size-scaled kill-defect (fault) density.

    Attributes
    ----------
    reference_density_per_cm2:
        Fault density at the reference feature size, mature process.
    reference_feature_um:
        λ at which the reference density is quoted.
    feature_exponent:
        Net growth of fault density per linear shrink (default 1.0).
    """

    reference_density_per_cm2: float = 0.5
    reference_feature_um: float = 0.18
    feature_exponent: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.reference_density_per_cm2, "reference_density_per_cm2")
        check_positive(self.reference_feature_um, "reference_feature_um")
        check_nonnegative(self.feature_exponent, "feature_exponent")

    def density(self, feature_um, maturity_factor: float = 1.0):
        """Fault density in /cm² at feature size λ.

        ``maturity_factor`` multiplies the mature-process density (use
        :class:`repro.yieldmodels.learning.YieldLearningCurve` to derive
        it from wafer volume).
        """
        feature_um = check_positive(feature_um, "feature_um")
        maturity_factor = check_positive(maturity_factor, "maturity_factor")
        scale = (self.reference_feature_um / np.asarray(feature_um, dtype=float)) ** self.feature_exponent
        result = self.reference_density_per_cm2 * scale * maturity_factor
        return result if np.ndim(result) else float(result)


#: Anchored so the paper's Y = 0.4 / 0.8 / 0.9 operating points are reachable.
DEFAULT_DEFECT_MODEL = DefectDensityModel()
