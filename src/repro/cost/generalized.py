"""Generalized transistor cost — eq. (7), the paper's "ultimate objective".

Eq. (7) promotes every parameter of eq. (4) to a function of the
operating point:

    ``C_tr = s_d λ² [Cm_sq(A_w, λ, N_w) + Cd_sq(A_w, λ, N_w, N_tr, s_d0)]
             / (u · Y(A_w, λ, N_w, s_d, N_tr))``

The paper argues that *without* the capability to evaluate this full
model, "the cost challenge of nanometer-technologies might become
overwhelming". :class:`GeneralizedCostModel` supplies that capability
by composing the library's substrates:

* ``Cm_sq(A_w, λ, N_w)`` — :class:`repro.wafer.cost.WaferCostModel`
  (volume amortisation, node scaling, wafer-size economics);
* ``Y(A_w, λ, N_w, s_d, N_tr)`` —
  :class:`repro.yieldmodels.composite.CompositeYield` (critical-area
  density coupling, defect scaling, learning);
* ``Cd_sq`` — eq. (5) with eq. (6) design cost and the mask model;
* ``u`` — the §2.5 utilization substitution.

Unlike the fixed-``Y`` eq. (4) used for Figure 4, here yield *responds*
to the design density (denser layout ⇒ smaller die but more critical
area per cm²), which is exactly the coupled trade-off §3.1 says design
objectives must optimise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.instrument import traced
from ..units import um_to_cm
from ..validation import check_fraction, check_positive
from ..wafer.cost import WaferCostModel
from ..wafer.specs import WAFER_200MM, WaferSpec
from ..yieldmodels.composite import CompositeYield
from .design import DesignCostModel
from .masks import MaskSetCostModel
from .test import TestCostModel
from .total import CostBreakdown

__all__ = ["GeneralizedCostModel", "DEFAULT_GENERALIZED_MODEL"]


@dataclass(frozen=True)
class GeneralizedCostModel:
    """Eq. (7) with all parameter dependencies live.

    All component models default to the library's calibrated instances;
    swap any of them to run ablations (see
    ``benchmarks/bench_ablation_yield.py``).
    """

    wafer: WaferSpec = WAFER_200MM
    wafer_cost: WaferCostModel = field(default_factory=WaferCostModel)
    yield_model: CompositeYield = field(default_factory=CompositeYield)
    design_model: DesignCostModel = field(default_factory=DesignCostModel)
    mask_model: MaskSetCostModel = field(default_factory=MaskSetCostModel)
    test_model: TestCostModel | None = None
    utilization: float = 1.0
    include_masks: bool = True

    def __post_init__(self) -> None:
        check_fraction(self.utilization, "utilization")

    # -- live parameter views ------------------------------------------------
    def cm_sq(self, feature_um, n_wafers, maturity: float = 1.0):
        """``Cm_sq(A_w, λ, N_w)`` in $/cm²."""
        return self.wafer_cost.cost_per_cm2(feature_um, self.wafer, n_wafers, maturity)

    def cd_sq(self, n_transistors, sd, feature_um, n_wafers):
        """``Cd_sq(A_w, λ, N_w, N_tr, s_d)`` in $/cm² (eq. 5)."""
        n_wafers = check_positive(n_wafers, "n_wafers")
        c_de = self.design_model.cost(n_transistors, sd)
        c_ma = self.mask_model.cost(feature_um) if self.include_masks else 0.0
        result = (np.asarray(c_de) + c_ma) / (np.asarray(n_wafers, dtype=float) * self.wafer.area_cm2)
        args = (n_transistors, sd, n_wafers)
        return result if any(np.ndim(a) for a in args) else float(result)

    def yield_at(self, n_transistors, sd, feature_um, n_wafers):
        """``Y(A_w, λ, N_w, s_d, N_tr)`` in (0, 1]."""
        return self.yield_model(n_transistors, sd, feature_um, n_wafers)

    # -- eq. (7) -----------------------------------------------------------
    @traced(equation="7")
    def transistor_cost(self, sd, n_transistors, feature_um, n_wafers,
                        maturity: float = 1.0):
        """``C_tr`` per eq. (7), $/useful transistor."""
        sd = check_positive(sd, "sd")
        feature_cm = um_to_cm(check_positive(feature_um, "feature_um"))
        cm = self.cm_sq(feature_um, n_wafers, maturity)
        cd = self.cd_sq(n_transistors, sd, feature_um, n_wafers)
        ct = 0.0
        if self.test_model is not None:
            ct = self.test_model.cost_per_cm2(sd, feature_um, n_transistors)
        y = self.yield_at(n_transistors, sd, feature_um, n_wafers)
        result = (
            np.asarray(sd, dtype=float)
            * np.asarray(feature_cm, dtype=float) ** 2
            * (np.asarray(cm) + np.asarray(cd) + np.asarray(ct))
            / (self.utilization * np.asarray(y))
        )
        args = (sd, n_transistors, feature_um, n_wafers)
        return result if any(np.ndim(a) for a in args) else float(result)

    @traced(equation="7", attach_result=True)
    def breakdown(self, sd, n_transistors, feature_um, n_wafers,
                  maturity: float = 1.0) -> CostBreakdown:
        """Component split of eq. (7) at a scalar operating point."""
        sd = check_positive(sd, "sd")
        feature_cm = um_to_cm(check_positive(feature_um, "feature_um"))
        n_wafers = check_positive(n_wafers, "n_wafers")
        y = float(self.yield_at(n_transistors, sd, feature_um, n_wafers))
        silicon = feature_cm**2 * sd / (y * self.utilization)
        wafer_cm2 = n_wafers * self.wafer.area_cm2
        mask_sq = (self.mask_model.cost(feature_um) / wafer_cm2) if self.include_masks else 0.0
        design_sq = self.design_model.cost(n_transistors, sd) / wafer_cm2
        test_sq = 0.0
        if self.test_model is not None:
            test_sq = self.test_model.cost_per_cm2(sd, feature_um, n_transistors)
        cm = float(self.cm_sq(feature_um, n_wafers, maturity))
        parts = [float(silicon * sq) for sq in (cm, design_sq, mask_sq, test_sq)]
        return CostBreakdown(*parts, total=parts[0] + parts[1] + parts[2] + parts[3])


DEFAULT_GENERALIZED_MODEL = GeneralizedCostModel()
