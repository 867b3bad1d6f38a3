"""Composite yield — the full ``Y(A_w, λ, N_w, s_d, N_tr)`` of eq. (7).

:class:`CompositeYield` assembles the pieces of this subpackage into
the dependency structure the paper's generalized model (7) calls for:

* die area from the *design*: ``A_ch = N_tr · s_d · λ²`` (eq. 2);
* fault density from the *process*: feature-size scaling
  (:class:`DefectDensityModel`) × volume learning
  (:class:`YieldLearningCurve`);
* defect-sensitive area from the *layout density*
  (:class:`CriticalAreaModel`);
* a random-defect statistic (:class:`YieldModel`, NB(α=2) by default);
* an optional systematic-yield factor ``Y_sys`` multiplying the random
  component (parametric/litho losses that do not scale with area).

The result is a callable suitable for plugging into
:class:`repro.cost.generalized.GeneralizedCostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..density.metrics import area_from_sd
from ..validation import check_fraction, check_positive
from .critical_area import DEFAULT_CRITICAL_AREA_MODEL, CriticalAreaModel
from .defects import DEFAULT_DEFECT_MODEL, DefectDensityModel
from .learning import DEFAULT_LEARNING_CURVE, YieldLearningCurve
from .models import NegativeBinomialYield, YieldModel

__all__ = ["CompositeYield", "DEFAULT_COMPOSITE_YIELD"]


@dataclass(frozen=True)
class CompositeYield:
    """Yield as a function of design and process operating point.

    Attributes
    ----------
    statistic:
        Random-defect yield model (default NB with α=2).
    defects:
        Feature-size-scaled defect density model.
    critical_area:
        Density-dependent critical-area model.
    learning:
        Volume learning curve for the defect density.
    systematic_yield:
        Area-independent multiplicative yield component in (0, 1].
    """

    statistic: YieldModel = field(default_factory=lambda: NegativeBinomialYield(alpha=2.0))
    defects: DefectDensityModel = DEFAULT_DEFECT_MODEL
    critical_area: CriticalAreaModel = DEFAULT_CRITICAL_AREA_MODEL
    learning: YieldLearningCurve = DEFAULT_LEARNING_CURVE
    systematic_yield: float = 1.0

    def __post_init__(self) -> None:
        check_fraction(self.systematic_yield, "systematic_yield")

    def die_area_cm2(self, n_transistors, sd, feature_um):
        """Die area implied by the design point (eq. 2)."""
        return area_from_sd(sd, n_transistors, feature_um)

    def fault_density(self, feature_um, n_wafers):
        """Effective kill-fault density at this node and volume (/cm²)."""
        n_wafers = check_positive(n_wafers, "n_wafers")
        return self.defects.density(
            feature_um, maturity_factor=self.learning.multiplier(n_wafers))

    def at_density(self, sd, area_cm2, fault_density):
        """``Y`` of a die of ``area_cm2`` drawn at ``s_d``, at
        ``fault_density`` (/cm²): the statistic of its critical-area
        fault count, times ``Y_sys``. The part of eq. (7)'s yield that
        depends on ``s_d``; floats or NumPy arrays."""
        faults = self.critical_area.faults_per_die(area_cm2, sd, fault_density)
        return self.statistic.yield_from_faults(faults) * self.systematic_yield

    def __call__(self, n_transistors, sd, feature_um, n_wafers=1.0e9):
        """``Y(s_d, λ, N_tr, N_w)`` per eq. (7).

        Parameters
        ----------
        n_transistors:
            Transistors per die ``N_tr``.
        sd:
            Design decompression index.
        feature_um:
            Minimum feature size λ (µm).
        n_wafers:
            Cumulative wafer volume (drives yield learning). The default
            is effectively "mature process".

        Returns
        -------
        float or ndarray in (0, 1].
        """
        area = self.die_area_cm2(n_transistors, sd, feature_um)
        return self.at_density(sd, area, self.fault_density(feature_um, n_wafers))


DEFAULT_COMPOSITE_YIELD = CompositeYield()
