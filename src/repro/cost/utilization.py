"""Hardware utilization — the ``u`` parameter of §2.5 / eq. (7).

The paper notes that model (4) can price a transistor in devices where
only a subset of fabricated transistors delivers useful function —
FPGAs being the canonical case, unused IP blocks (the idle FPU example)
another — "by simply substituting yield Y with the product uY".

This module supplies that substitution plus the FPGA-vs-ASIC crossover
analysis it enables: an FPGA buys near-zero design cost (``C_DE`` of a
pre-designed fabric amortises over *all* its users) at the price of a
small ``u`` and a sparse fabric ``s_d``; an ASIC pays eq. (6) design
cost for dense, fully utilized silicon. Which wins depends on volume —
a crossover the cost model makes quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.instrument import traced
from ..units import um_to_cm
from ..errors import DomainError
from ..validation import check_fraction, check_positive
from ..wafer.specs import WAFER_200MM, WaferSpec
from .design import DesignCostModel

__all__ = ["effective_yield", "UtilizedDevice", "fpga_vs_asic_crossover"]


@traced(equation="s2.5")
def effective_yield(yield_fraction, utilization):
    """The paper's §2.5 substitution: ``Y → u·Y``."""
    yield_fraction = check_fraction(yield_fraction, "yield_fraction")
    utilization = check_fraction(utilization, "utilization")
    result = np.asarray(yield_fraction, dtype=float) * np.asarray(utilization, dtype=float)
    args = (yield_fraction, utilization)
    return result if any(np.ndim(a) for a in args) else float(result)


@dataclass(frozen=True)
class UtilizedDevice:
    """A device style priced per *used* transistor.

    Attributes
    ----------
    name:
        Label ("FPGA", "ASIC", ...).
    sd:
        Fabric/layout decompression index.
    utilization:
        Fraction ``u`` of fabricated transistors delivering function.
    design_cost_usd:
        Development cost charged to *this* product. For an FPGA user
        this is near zero (the fabric is pre-designed and its cost
        amortises across the whole FPGA market); for an ASIC it is
        eq. (6).
    mask_cost_usd:
        Mask cost charged to this product (zero for an FPGA user —
        standard parts are bought off the shelf).
    """

    name: str
    sd: float
    utilization: float
    design_cost_usd: float = 0.0
    mask_cost_usd: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.sd, "sd")
        check_fraction(self.utilization, "utilization")
        if self.design_cost_usd < 0 or self.mask_cost_usd < 0:
            raise DomainError("costs must be non-negative")

    @traced(equation="4")
    def cost_per_used_transistor(self, n_transistors, feature_um, n_wafers,
                                 yield_fraction, cost_per_cm2,
                                 wafer: WaferSpec = WAFER_200MM):
        """Eq. (4) with ``Y → u·Y`` and this device's development costs."""
        n_transistors = check_positive(n_transistors, "n_transistors")
        feature_cm = um_to_cm(check_positive(feature_um, "feature_um"))
        n_wafers = check_positive(n_wafers, "n_wafers")
        yield_fraction = check_fraction(yield_fraction, "yield_fraction")
        cost_per_cm2 = check_positive(cost_per_cm2, "cost_per_cm2")
        dev_sq = (self.design_cost_usd + self.mask_cost_usd) / (
            np.asarray(n_wafers, dtype=float) * wafer.area_cm2
        )
        y_eff = effective_yield(yield_fraction, self.utilization)
        result = feature_cm**2 * self.sd / np.asarray(y_eff) * (cost_per_cm2 + dev_sq)
        args = (n_transistors, n_wafers, yield_fraction)
        return result if any(np.ndim(a) for a in args) else float(result)


@traced(equation="4", capture=("n_transistors", "feature_um", "yield_fraction",
                               "cost_per_cm2", "asic_sd", "max_wafers"))
def fpga_vs_asic_crossover(
    n_transistors: float,
    feature_um: float,
    yield_fraction: float,
    cost_per_cm2: float,
    fpga: UtilizedDevice,
    asic_sd: float = 300.0,
    design_model: DesignCostModel | None = None,
    mask_cost_usd: float = 0.0,
    wafer: WaferSpec = WAFER_200MM,
    max_wafers: float = 1.0e7,
) -> float | None:
    """Wafer volume at which the ASIC's used-transistor cost drops below the FPGA's.

    Returns ``None`` when the ASIC never wins below ``max_wafers`` (or
    the FPGA never wins at any volume — i.e. no crossover exists in
    range). Bisection on log-volume; both cost curves are monotone
    decreasing in ``N_w`` with the ASIC falling faster, so at most one
    crossover exists.
    """
    design_model = design_model if design_model is not None else DesignCostModel()
    asic = UtilizedDevice(
        name="ASIC",
        sd=asic_sd,
        utilization=1.0,
        design_cost_usd=design_model.cost(n_transistors, asic_sd),
        mask_cost_usd=mask_cost_usd,
    )

    def gap(n_wafers: float) -> float:
        a = asic.cost_per_used_transistor(n_transistors, feature_um, n_wafers,
                                          yield_fraction, cost_per_cm2, wafer)
        f = fpga.cost_per_used_transistor(n_transistors, feature_um, n_wafers,
                                          yield_fraction, cost_per_cm2, wafer)
        return float(a - f)

    lo, hi = 1.0, float(max_wafers)
    if gap(lo) <= 0:
        return lo  # ASIC already cheaper at one wafer
    if gap(hi) > 0:
        return None  # ASIC never catches up in range
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi / lo < 1 + 1e-12:
            break
    return float(np.sqrt(lo * hi))
