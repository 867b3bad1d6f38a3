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

The arithmetic is :class:`repro.engine.pykernels.Eq7Point`'s, set up
once per operating point by :meth:`GeneralizedCostModel.sd_curve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..engine import pykernels as pyk
from ..errors import DomainError
from ..obs.instrument import traced
from ..validation import as_array, check_fraction, check_positive
from ..wafer.cost import WaferCostModel
from ..wafer.specs import WAFER_200MM, WaferSpec
from ..yieldmodels.composite import CompositeYield
from .design import DesignCostModel, margin_power
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
        return pyk.amortised(c_de, c_ma, n_wafers * self.wafer.area_cm2)

    def yield_at(self, n_transistors, sd, feature_um, n_wafers):
        """``Y(A_w, λ, N_w, s_d, N_tr)`` in (0, 1]."""
        return self.yield_model(n_transistors, sd, feature_um, n_wafers)

    # -- eq. (7) -----------------------------------------------------------
    @traced(equation="7")
    def transistor_cost(self, sd, n_transistors, feature_um, n_wafers,
                        maturity: float = 1.0):
        """``C_tr`` per eq. (7), $/useful transistor: ``sd_curve(...)(sd)``."""
        sd = check_positive(sd, "sd")
        return self.sd_curve(n_transistors, feature_um, n_wafers, maturity)(sd)

    def sd_curve(self, n_transistors, feature_um, n_wafers,
                 maturity: float = 1.0):
        """Eq. (7) at a fixed operating point, as a function of ``s_d`` alone.

        Checks the scalar fixed arguments once and sets up the
        :class:`~repro.engine.pykernels.Eq7Point` kept as
        ``curve.point``. ``curve(sd)`` prices a scalar ``sd`` with its
        ``terms`` from NumPy's ``(s_d − s_d0)^p2``, and an array with
        its ``sums``; a cost out of float range raises the scalar
        path's :class:`DomainError` for the first such point.
        """
        feature_um = pyk.positive(feature_um, "feature_um")
        n_wafers = pyk.positive(n_wafers, "n_wafers")
        n_transistors = pyk.positive(n_transistors, "n_transistors")
        lambda_sq = pyk.lambda_sq(feature_um)
        cm_sq = self.cm_sq(feature_um, n_wafers, maturity)
        try:
            c_ma = self.mask_model.cost(feature_um) if self.include_masks else 0.0
        except DomainError as exc:
            c_ma = exc  # raised after the margin check, as eq. (5) orders it
        design = self.design_model
        point = pyk.Eq7Point(
            n_transistors, feature_um, n_wafers, cm_sq,
            pyk.amplitude(n_transistors, design.a0, design.p1), lambda_sq,
            c_ma, n_wafers * self.wafer.area_cm2, self.utilization,
            self.yield_model.fault_density(feature_um, n_wafers), design.sd0,
            design.p2, self._yield,
            None if self.test_model is None else self.test_model.cost_per_cm2)
        # An overflowing ``N_tr^p1`` prices a grid at ``inf``, which fails.
        grid_point = (point if point.amplitude is not None
                      else point._replace(amplitude=math.inf))

        def curve(sd):
            values = as_array(sd)
            if values is None:
                sd = pyk.positive(sd, "sd")
                return point.terms(sd, margin_power(point.margin(sd),
                                                    point.p2))[-1]
            m = design.margin(values)
            if isinstance(c_ma, DomainError):
                raise c_ma
            with np.errstate(all="ignore"):
                power = m ** point.p2
                cost = grid_point.sums(values, power)[-1]
            ok = (cost < math.inf) & (power < math.inf)
            if not ok.all():
                i = int(np.argmin(ok))
                raise point.error(float(values.flat[i]), float(power.flat[i]))
            return cost

        curve.point = point
        return curve

    def _yield(self, sd, area, fault_density):
        """The composite yield as :class:`~repro.engine.pykernels.Eq7Point`
        calls it; NumPy's float-range warnings are left to the cost check."""
        with np.errstate(all="ignore"):
            return self.yield_model.at_density(sd, area, fault_density)

    @traced(equation="7", attach_result=True)
    def breakdown(self, sd, n_transistors, feature_um, n_wafers,
                  maturity: float = 1.0) -> CostBreakdown:
        """Component split of eq. (7) at a scalar operating point.

        The components are the terms eq. (7) sums, and ``total`` is the
        cost it returns: :meth:`transistor_cost`'s value, and its errors.
        """
        sd = pyk.positive(sd, "sd")
        point = self.sd_curve(n_transistors, feature_um, n_wafers,
                              maturity).point
        power = margin_power(point.margin(sd), point.p2)
        return CostBreakdown(*point.breakdown(sd, power))


DEFAULT_GENERALIZED_MODEL = GeneralizedCostModel()
