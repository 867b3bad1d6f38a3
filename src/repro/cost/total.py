"""Total transistor cost — eqs. (4) and (5) of the paper.

Eq. (4) extends the manufacturing-only eq. (3) with the development
costs amortised over the fabricated silicon:

    ``C_tr = (λ² s_d / Y) · (Cm_sq + Cd_sq)``
    ``Cd_sq = (C_MA + C_DE) / (N_w · A_w)``            (eq. 5)

For high-volume products (``N_w`` large) ``Cd_sq → 0`` and eq. (4)
degenerates to eq. (3), exactly as the paper notes.

:class:`TotalCostModel` wires eq. (6) (design cost) and the mask model
into this structure and optionally folds in the §2.5 extensions (test
cost and hardware utilization ``u``, the latter by the paper's own
``Y → u·Y`` substitution). :meth:`TotalCostModel.breakdown` exposes the
per-component split the Figure 4 discussion reasons about.
:meth:`TotalCostModel.sd_curve` binds eq. (4) to one operating point,
so a solver over ``s_d`` validates the fixed arguments only once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._compat import renamed_kwargs
from ..errors import DomainError
from ..obs.instrument import traced
from ..units import um_to_cm
from ..validation import check_fraction, check_positive
from ..wafer.specs import WAFER_200MM, WaferSpec
from .design import DesignCostModel
from .masks import MaskSetCostModel
from .test import TestCostModel

__all__ = ["CostBreakdown", "TotalCostModel", "PAPER_FIGURE4_MODEL"]


@dataclass(frozen=True)
class CostBreakdown:
    """Per-transistor cost split at one operating point (all $/transistor)."""

    manufacturing: float
    design: float
    masks: float
    test: float

    @property
    def total(self) -> float:
        """Sum of all components."""
        return self.manufacturing + self.design + self.masks + self.test

    @property
    def development_share(self) -> float:
        """Fraction of the total that is development (design + masks)."""
        return (self.design + self.masks) / self.total


@dataclass(frozen=True)
class TotalCostModel:
    """Eq. (4)/(5) with pluggable component models.

    Attributes
    ----------
    design_model:
        Eq.-(6) design cost model (paper constants by default).
    mask_model:
        Mask-set cost model for ``C_MA``; set ``include_masks=False``
        to reproduce the bare eq. (4) with ``C_MA = 0`` (the paper's
        Figure 4 presentation does not separate it).
    wafer:
        Wafer format supplying ``A_w`` for eq. (5).
    include_masks:
        Whether ``C_MA`` enters ``Cd_sq``.
    test_model:
        Optional §2.5 test-cost extension; ``None`` omits it (the
        paper's lower-bound configuration).
    utilization:
        Hardware utilization ``u`` in (0, 1]; enters as ``Y → u·Y``
        per §2.5. Default 1.0 (every fabricated transistor is used).
    """

    design_model: DesignCostModel = field(default_factory=DesignCostModel)
    mask_model: MaskSetCostModel = field(default_factory=MaskSetCostModel)
    wafer: WaferSpec = WAFER_200MM
    include_masks: bool = True
    test_model: TestCostModel | None = None
    utilization: float = 1.0

    def __post_init__(self) -> None:
        check_fraction(self.utilization, "utilization")

    # -- eq. (5) ---------------------------------------------------------
    def mask_cost(self, feature_um) -> float:
        """``C_MA`` for the node ($); zero when masks are excluded."""
        if not self.include_masks:
            return 0.0
        return self.mask_model.cost(feature_um)

    @traced(equation="5")
    def design_cost_per_cm2(self, n_transistors, sd, feature_um, n_wafers):
        """Eq. (5): ``Cd_sq = (C_MA + C_DE)/(N_w A_w)`` in $/cm²."""
        n_wafers = check_positive(n_wafers, "n_wafers")
        c_de = self.design_model.cost(n_transistors, sd)
        c_ma = self.mask_cost(feature_um)
        result = (np.asarray(c_de) + c_ma) / (np.asarray(n_wafers, dtype=float) * self.wafer.area_cm2)
        args = (n_transistors, sd, n_wafers)
        return result if any(np.ndim(a) for a in args) else float(result)

    # -- eq. (4) -----------------------------------------------------------
    @renamed_kwargs(cm_sq="cost_per_cm2")
    @traced(equation="4")
    def transistor_cost(self, sd, n_transistors, feature_um, n_wafers,
                        yield_fraction, cost_per_cm2):
        """Eq. (4): total cost per functional (and used) transistor ($).

        Parameters
        ----------
        sd:
            Design decompression index (> ``design_model.sd0``).
        n_transistors:
            Transistors per die ``N_tr``.
        feature_um:
            Minimum feature size λ (µm).
        n_wafers:
            Wafer run size ``N_w``.
        yield_fraction:
            Manufacturing yield ``Y``.
        cost_per_cm2:
            Manufacturing cost per cm² ``Cm_sq`` ($/cm²).
        """
        sd = check_positive(sd, "sd")
        return self.sd_curve(n_transistors, feature_um, n_wafers,
                             yield_fraction, cost_per_cm2)(sd)

    @traced(equation="4")
    def sd_curve(self, n_transistors, feature_um, n_wafers, yield_fraction,
                 cost_per_cm2):
        """Eq. (4) at a fixed operating point, as a function of ``s_d`` alone.

        Validates the fixed arguments once, precomputes the factors that
        do not depend on ``s_d`` (``A0·N_tr^p1``, ``C_MA``, ``N_w·A_w``,
        ``λ²``, ``u·Y``) and returns ``curve(sd)``, which evaluates
        eqs. (4)–(6) for a scalar or array ``sd``. :meth:`transistor_cost`
        is ``sd_curve(...)(sd)``; a solver that evaluates eq. (4) many
        times at one operating point builds the curve once instead.

        ``curve(sd, out=buf, scratch=tmp)`` writes an array ``sd``'s
        costs into ``buf`` and returns it, using ``tmp`` (same shape,
        float) as its only working memory. With scalar fixed arguments,
        no test model and a valid ``C_MA`` it runs the same ufuncs in
        place, so the values are bit-identical to ``curve(sd)``; it
        falls back to ``curve(sd)`` otherwise and on any invalid
        ``sd``, so the errors are too.
        """
        feature_cm = um_to_cm(check_positive(feature_um, "feature_um"))
        effective_yield = (np.asarray(check_fraction(yield_fraction, "yield_fraction"),
                                      dtype=float) * self.utilization)
        cm_sq = check_positive(cost_per_cm2, "cost_per_cm2")
        wafer_cm2 = (np.asarray(check_positive(n_wafers, "n_wafers"), dtype=float)
                     * self.wafer.area_cm2)
        design = self.design_model
        amplitude = design.a0 * np.asarray(
            check_positive(n_transistors, "n_transistors"), dtype=float) ** design.p1
        try:
            c_ma = self.mask_cost(feature_um)
        except DomainError as exc:
            # Raised per call, after the margin check, as eq. (5) orders it.
            c_ma = exc
        lambda_sq = np.asarray(feature_cm, dtype=float) ** 2
        fixed_ndim = any(np.ndim(a) for a in (n_transistors, feature_um, n_wafers,
                                              yield_fraction, cost_per_cm2))
        test_model = self.test_model
        sd0 = design.sd0
        p2 = design.p2
        fused = (test_model is None and not fixed_ndim
                 and not isinstance(c_ma, DomainError))

        def into(sd, out, scratch):
            if fused and type(sd) is np.ndarray and sd.dtype == np.float64:
                m = np.subtract(sd, sd0, out=np.empty_like(sd) if scratch is None else scratch)
                # check_positive's finite and > 0 tests and margin's
                # > s_d0 test in one pass: all hold exactly when
                # 0 < m < inf (a NaN fails both comparisons).
                if 0.0 < np.min(m, initial=np.inf) and np.max(m, initial=-np.inf) < np.inf:
                    # curve(sd)'s ufuncs in its order, one buffer each side.
                    c = np.power(m, p2, out=m)
                    np.divide(amplitude, c, out=c)
                    np.add(c, c_ma, out=c)
                    np.divide(c, wafer_cm2, out=c)
                    np.add(cm_sq, c, out=c)
                    np.add(c, 0.0, out=c)  # ``+ ct_sq``: -0.0 becomes 0.0
                    np.multiply(lambda_sq, sd, out=out)
                    np.divide(out, effective_yield, out=out)
                    return np.multiply(out, c, out=out)
            # Anything else, and every failed check, takes the general
            # path, which raises the same DomainError as before.
            out[...] = curve(sd)
            return out

        def curve(sd, out=None, scratch=None):
            if out is not None:
                return into(sd, out, scratch)
            m = design.margin(sd)  # a float exactly when ``sd`` is a scalar
            scalar = isinstance(m, float)
            c_de = amplitude / np.asarray(m) ** design.p2
            if isinstance(c_ma, DomainError):
                raise c_ma
            cd_sq = (c_de + c_ma) / wafer_cm2
            ct_sq = 0.0
            if test_model is not None:
                ct_sq = test_model.cost_per_cm2(sd, feature_um, n_transistors)
            result = (
                lambda_sq
                * (float(sd) if scalar else np.asarray(sd, dtype=float))
                / effective_yield
                * (cm_sq + cd_sq + ct_sq)
            )
            return float(result) if scalar and not fixed_ndim else result

        return curve

    @renamed_kwargs(cm_sq="cost_per_cm2")
    @traced(equation="4", attach_result=True)
    def breakdown(self, sd, n_transistors, feature_um, n_wafers,
                  yield_fraction, cost_per_cm2) -> CostBreakdown:
        """Component-wise split of eq. (4) at a scalar operating point."""
        sd = check_positive(sd, "sd")
        feature_cm = um_to_cm(check_positive(feature_um, "feature_um"))
        yield_fraction = check_fraction(yield_fraction, "yield_fraction")
        cost_per_cm2 = check_positive(cost_per_cm2, "cost_per_cm2")
        n_wafers = check_positive(n_wafers, "n_wafers")
        silicon = feature_cm**2 * sd / (yield_fraction * self.utilization)
        wafer_cm2 = n_wafers * self.wafer.area_cm2
        design_sq = self.design_model.cost(n_transistors, sd) / wafer_cm2
        mask_sq = self.mask_cost(feature_um) / wafer_cm2
        test_sq = 0.0
        if self.test_model is not None:
            test_sq = self.test_model.cost_per_cm2(sd, feature_um, n_transistors)
        return CostBreakdown(
            manufacturing=float(silicon * cost_per_cm2),
            design=float(silicon * design_sq),
            masks=float(silicon * mask_sq),
            test=float(silicon * test_sq),
        )

    @renamed_kwargs(cm_sq="cost_per_cm2")
    def project_cost(self, sd, n_transistors, feature_um, n_wafers, cost_per_cm2) -> float:
        """Total program spend ($): silicon + design + masks for the run."""
        n_wafers = check_positive(n_wafers, "n_wafers")
        cost_per_cm2 = check_positive(cost_per_cm2, "cost_per_cm2")
        silicon = cost_per_cm2 * self.wafer.area_cm2 * n_wafers
        return float(
            silicon + self.design_model.cost(n_transistors, sd) + self.mask_cost(feature_um)
        )


#: The configuration behind Figure 4: eq. (4) with the paper's eq.-(6)
#: constants, 200 mm wafers, no mask/test terms, full utilization.
PAPER_FIGURE4_MODEL = TotalCostModel(include_masks=False)
