"""Lithography mask-set cost — the ``C_MA`` of eq. (5).

The paper amortises the mask set over the wafer run together with the
design cost: ``Cd_sq = (C_MA + C_DE)/(N_w · A_w)``. Mask-set prices are
well documented historically: roughly $100 k at the 0.6 µm generation,
doubling every generation to ≈ $1 M at 0.18 µm and projected into the
multi-million range for nanometer nodes — one of the paper's "high-cost
era" drivers.

:class:`MaskSetCostModel` captures that cadence:

    ``C_MA(λ) = anchor · (λ_anchor/λ)^exponent · (n_layers/ref_layers)``

The default exponent 2.0 gives ×2 per ×0.7 linear shrink (2^(log_0.7⁻¹…)
≈ doubling per node), matching the historical record. The layer count
term scales linearly: each additional mask level is roughly constant
incremental cost within a node.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine import pykernels as pyk
from ..errors import DomainError
from ..obs.instrument import traced
from ..validation import check_positive, check_positive_int

__all__ = ["MaskSetCostModel", "DEFAULT_MASK_COST_MODEL", "layer_count_estimate"]


def layer_count_estimate(feature_um: float) -> int:
    """Typical mask-level count at a feature size.

    Empirical staircase: ~18 levels at 0.6 µm rising ~4 per generation
    to ~30 at 0.13 µm (more metal, more implants).
    """
    return pyk.mask_layers(check_positive(feature_um, "feature_um"))


@dataclass(frozen=True)
class MaskSetCostModel:
    """Mask-set cost as a function of node and layer count.

    Attributes
    ----------
    anchor_cost_usd:
        Full-set price at the anchor node with the reference layer
        count. Default $1.0 M at 0.18 µm.
    anchor_feature_um:
        Anchor node (default 0.18 µm).
    exponent:
        Shrink exponent; 2.0 ≈ cost doubling per ×0.7 node.
    reference_layers:
        Layer count the anchor price assumes (default 24).
    """

    anchor_cost_usd: float = 1.0e6
    anchor_feature_um: float = 0.18
    exponent: float = 2.0
    reference_layers: int = 24

    def __post_init__(self) -> None:
        check_positive(self.anchor_cost_usd, "anchor_cost_usd")
        check_positive(self.anchor_feature_um, "anchor_feature_um")
        check_positive(self.exponent, "exponent")
        check_positive_int(self.reference_layers, "reference_layers")

    @traced(equation="5")
    def cost(self, feature_um, n_layers: int | None = None):
        """Mask-set cost ``C_MA`` in $ for a node.

        Parameters
        ----------
        feature_um:
            Minimum feature size λ (µm).
        n_layers:
            Mask levels; defaults to :func:`layer_count_estimate`.
        """
        feature_um = check_positive(feature_um, "feature_um")
        if n_layers is None:
            if type(feature_um) is float:
                layers = layer_count_estimate(feature_um)
            else:
                import numpy as np
                layers = np.asarray([layer_count_estimate(f) for f in feature_um.ravel()])
                layers = layers.reshape(feature_um.shape)
        else:
            layers = check_positive_int(n_layers, "n_layers")
        return pyk.mask_set_cost(
            feature_um, layers, anchor_cost_usd=self.anchor_cost_usd,
            anchor_feature_um=self.anchor_feature_um, exponent=self.exponent,
            reference_layers=self.reference_layers)

    def respins_cost(self, feature_um, n_respins: int, n_layers: int | None = None) -> float:
        """Cost of a first set plus ``n_respins`` full re-spins.

        Failed design iterations that reach silicon (§3.2's "failing
        manufacturing experiments") each burn a mask set — this is the
        coupling between iteration count and ``C_MA``.
        """
        if n_respins < 0:
            raise DomainError(f"n_respins must be >= 0; got {n_respins}")
        return float(self.cost(feature_um, n_layers) * (1 + n_respins))


DEFAULT_MASK_COST_MODEL = MaskSetCostModel()
