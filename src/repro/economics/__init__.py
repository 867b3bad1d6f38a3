"""Business-side economics around the cost models.

Two extensions the paper motivates but does not formalise:

* :mod:`~repro.economics.fab` — the "high-cost era" headline as a
  model: fab capex (Moore's second law) → depreciation → wafer cost →
  the ``Cm_sq`` anchor of eq. (3);
* :mod:`~repro.economics.market` — §2.2.2's time-to-market pressure as
  a market-window revenue model; the profit-optimal ``s_d`` it yields
  sits above the cost-optimal one, deriving Figure 1's industrial
  drift.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "fab": ("FabModel", "moores_second_law_capex"),
    "market": ("MarketWindowModel", "ProfitPoint", "profit_optimal_sd"),
})

__all__ = [
    "FabModel",
    "moores_second_law_capex",
    "MarketWindowModel",
    "ProfitPoint",
    "profit_optimal_sd",
]
