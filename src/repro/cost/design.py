"""Design cost model — eq. (6) of the paper.

§2.4 argues that design cost is dominated by *poorly converging design
iterations*: each mis-predicted physical parameter (interconnect delay
being the canonical example) sends the flow around another
synthesis→place→route→extract loop. The closer a team pushes the
layout towards the full-custom density bound, the more such iterations
it burns. The paper captures this with a deliberately simple model:

    ``C_DE = A0 · N_tr^p1 / (s_d − s_d0)^p2``

* ``s_d0`` — the best achievable density, ≈ 100 λ²/transistor, read
  off the densest full-custom microprocessors in Table A1;
* ``A0, p1, p2`` — tuning constants; the paper uses **1000, 1.0, 1.2**,
  calibrated on a private dataset (footnote 1: "illustration purposes").

Sign convention
---------------
The paper prints the denominator as ``(s_d0 − s_d)^p2`` but describes
the effort as growing with the inverse *distance* between the achieved
``s_d`` and the best possible ``s_d0``, where every real design has
``s_d > s_d0`` (Table A1: 101–765 vs the bound 100). We therefore
implement ``(s_d − s_d0)^p2``, which is positive on the paper's own
data and reproduces Figure 4's diverging design cost as ``s_d → s_d0⁺``.

With the default constants and ``N_tr = 10⁷`` (the Figure 4 workload),
``C_DE`` ranges from ≈ $63 M at ``s_d = 150`` down to ≈ $2.7 M at
``s_d = 1000`` — design-team-scale numbers, as intended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..constants import EQ6_A0, EQ6_P1, EQ6_P2, EQ6_SD0
from ..engine import pykernels as pyk
from ..errors import DomainError
from ..obs.instrument import traced
from ..validation import check_positive

__all__ = ["DesignCostModel", "PAPER_DESIGN_COST_MODEL", "margin_power"]


def margin_power(m: float, p2) -> float:
    """``(s_d − s_d0)^p2`` of a float margin with NumPy's power, which
    the array forms use, so a point and a grid agree bit for bit; ``inf``
    where ``math``'s power overflows (NumPy's would warn)."""
    try:
        m ** p2
    except OverflowError:
        return math.inf
    import numpy as np
    return float(np.asarray(m) ** p2)


@dataclass(frozen=True)
class DesignCostModel:
    """Eq. (6): ``C_DE = A0 · N_tr^p1 / (s_d − s_d0)^p2``.

    Attributes
    ----------
    a0:
        Amplitude ``A0`` ($ per transistor^p1, paper value 1000).
    p1:
        Complexity exponent on the transistor count (paper value 1.0).
    p2:
        Divergence exponent on the density margin (paper value 1.2).
    sd0:
        Full-custom density bound ``s_d0`` (paper value 100).
    """

    a0: float = EQ6_A0
    p1: float = EQ6_P1
    p2: float = EQ6_P2
    sd0: float = EQ6_SD0

    def __post_init__(self) -> None:
        check_positive(self.a0, "a0")
        check_positive(self.p1, "p1")
        check_positive(self.p2, "p2")
        check_positive(self.sd0, "sd0")

    def margin(self, sd):
        """Density margin ``s_d − s_d0`` (must be strictly positive).

        Raises
        ------
        DomainError
            If any ``s_d ≤ s_d0``: the model says no finite design
            budget reaches or beats the full-custom bound.
        """
        if type(sd) is float:
            m = sd - self.sd0  # the same IEEE subtraction as the array path
            if 0 < m < math.inf:
                return m
        elif type(sd) is not int:  # an int takes the checks below, NumPy-free
            import numpy as np
            if type(sd) is np.ndarray and sd.dtype == np.float64 and sd.ndim:
                # Finite, > 0 and > s_d0 all hold exactly when
                # 0 < m < inf (a NaN fails both), so two reductions
                # replace the checks.
                m = sd - self.sd0
                if (0.0 < m.min(initial=math.inf)
                        and m.max(initial=0.0) < math.inf):
                    return m
        sd = check_positive(sd, "sd")
        m = sd - self.sd0
        if m <= 0 if type(m) is float else (m <= 0).any():
            raise DomainError(pyk.margin_message(self.sd0, sd))
        return m

    @traced(equation="6")
    def cost(self, n_transistors, sd):
        """Total design cost ``C_DE`` in $.

        Parameters
        ----------
        n_transistors:
            Design size ``N_tr`` (transistors).
        sd:
            Target design decompression index (> ``sd0``).
        """
        n_transistors = check_positive(n_transistors, "n_transistors")
        m = self.margin(sd)
        if isinstance(m, float) and isinstance(n_transistors, float):
            return pyk.design_cost(n_transistors, float(sd),
                                   margin_power(m, self.p2), a0=self.a0,
                                   p1=self.p1)
        import numpy as np
        return self.a0 * np.asarray(n_transistors, dtype=float) ** self.p1 / np.asarray(m) ** self.p2

    def marginal_cost_wrt_sd(self, n_transistors, sd):
        """``dC_DE/ds_d`` — always negative: sparser is cheaper to design.

        Used by the closed-form optimum conditions in
        :mod:`repro.optimize.optimum`.
        """
        import numpy as np
        n_transistors = check_positive(n_transistors, "n_transistors")
        m = self.margin(sd)
        result = (
            -self.p2
            * self.a0
            * np.asarray(n_transistors, dtype=float) ** self.p1
            / np.asarray(m) ** (self.p2 + 1.0)
        )
        return result if (np.ndim(n_transistors) or np.ndim(sd)) else float(result)

    @traced(equation="6")
    def sd_for_budget(self, n_transistors, budget_usd):
        """Densest ``s_d`` a design budget can afford (inverts eq. 6).

        ``s_d = s_d0 + (A0 · N_tr^p1 / budget)^{1/p2}``.
        """
        import numpy as np
        n_transistors = check_positive(n_transistors, "n_transistors")
        budget_usd = check_positive(budget_usd, "budget_usd")
        margin = (
            self.a0 * np.asarray(n_transistors, dtype=float) ** self.p1
            / np.asarray(budget_usd, dtype=float)
        ) ** (1.0 / self.p2)
        result = self.sd0 + margin
        return result if (np.ndim(n_transistors) or np.ndim(budget_usd)) else float(result)


#: Eq. (6) with the paper's published constants (A0=1000, p1=1.0, p2=1.2, s_d0=100).
PAPER_DESIGN_COST_MODEL = DesignCostModel()
