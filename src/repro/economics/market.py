"""Time-to-market economics — *why* industry drifted to sparse designs.

§2.2.2 observes that interconnect cannot explain the 2×+ rise of
industrial ``s_d`` and concludes "the time to market pressure must be a
factor deciding about compactness of modern custom-designed ICs". The
cost model alone cannot express that: in eq. (4) a denser design is
*always* worth more engineering (at high volume). The missing term is
revenue.

:class:`MarketWindowModel` adds the canonical market-window model: a
product addresses a revenue pool that decays as the ship date slips
(competitors take the sockets, prices erode),

    ``revenue(delay) = peak_revenue · exp(−delay / window_weeks)``.

Since the design schedule lengthens as ``s_d`` drops (more failed
iterations — :class:`repro.designflow.timing.TimingClosureModel`), the
*profit*-optimal ``s_d`` sits **above** the *cost*-optimal one, by an
amount that grows as the market window shortens. That is Figure 1's
industrial drift, derived rather than asserted — and the
`abl_ttm` bench quantifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..cost.manufacturing import die_cost
from ..cost.total import TotalCostModel
from ..designflow.iteration import IterationCostModel
from ..designflow.timing import TimingClosureModel
from ..errors import DomainError
from ..robust.retry import RetryBudget
from ..robust.solvers import retrying_golden_min
from ..validation import check_positive

__all__ = ["MarketWindowModel", "ProfitPoint", "profit_optimal_sd"]


@dataclass(frozen=True)
class MarketWindowModel:
    """Revenue as a function of design schedule.

    Attributes
    ----------
    peak_revenue_usd:
        Revenue captured by shipping immediately (the full socket).
    window_weeks:
        e-folding time of the revenue decay. A hot consumer socket of
        the era: ~40-80 weeks; an embedded part: hundreds.
    """

    peak_revenue_usd: float = 500.0e6
    window_weeks: float = 60.0

    def __post_init__(self) -> None:
        check_positive(self.peak_revenue_usd, "peak_revenue_usd")
        check_positive(self.window_weeks, "window_weeks")

    def revenue(self, delay_weeks) -> float:
        """Revenue after shipping ``delay_weeks`` late ($)."""
        if delay_weeks < 0:
            raise DomainError(f"delay_weeks must be >= 0; got {delay_weeks}")
        return self.peak_revenue_usd * math.exp(-delay_weeks / self.window_weeks)

    def revenue_lost(self, delay_weeks) -> float:
        """Revenue forfeited to the delay ($)."""
        return self.peak_revenue_usd - self.revenue(delay_weeks)


@dataclass(frozen=True)
class ProfitPoint:
    """Profit decomposition at one design density."""

    sd: float
    schedule_weeks: float
    revenue_usd: float
    silicon_cost_usd: float
    design_cost_usd: float

    @property
    def profit_usd(self) -> float:
        """Revenue minus all program costs."""
        return self.revenue_usd - self.silicon_cost_usd - self.design_cost_usd


def _evaluate(
    sd: float,
    market: MarketWindowModel,
    cost_model: TotalCostModel,
    closure: TimingClosureModel,
    iteration_cost: IterationCostModel,
    n_transistors: float,
    feature_um: float,
    n_units: float,
    yield_fraction: float,
    cost_per_cm2: float,
    regularity: float,
) -> ProfitPoint:
    iterations = closure.expected_iterations(sd, feature_um, regularity)
    schedule = iterations * iteration_cost.weeks_per_pass(n_transistors)
    design_cost = iteration_cost.expected_cost(n_transistors, iterations)
    # Selling n_units good dice: every unit carries the eq.-(3) die
    # cost, which rises linearly with sd (sparser design = more silicon
    # per sold unit).
    silicon = n_units * die_cost(cost_per_cm2, feature_um, sd, n_transistors, yield_fraction)
    return ProfitPoint(
        sd=sd,
        schedule_weeks=float(schedule),
        revenue_usd=market.revenue(schedule),
        silicon_cost_usd=float(silicon),
        design_cost_usd=float(design_cost),
    )


def profit_optimal_sd(
    market: MarketWindowModel,
    cost_model: TotalCostModel,
    n_transistors: float,
    feature_um: float,
    n_units: float,
    yield_fraction: float,
    cost_per_cm2: float,
    closure: TimingClosureModel | None = None,
    iteration_cost: IterationCostModel | None = None,
    regularity: float = 0.0,
    sd_max: float = 5000.0,
    tol: float = 1e-9,
    max_iter: int = 500,
    retry: RetryBudget | None = None,
) -> ProfitPoint:
    """Density maximising profit = revenue(schedule) − costs.

    Parameters
    ----------
    n_units:
        Good dice the program will sell; the silicon bill is
        ``n_units × die_cost(s_d)`` (eq. 3), so it rises with ``s_d``.
    retry:
        Optional :class:`repro.robust.RetryBudget`; a convergence stall
        restarts with a grown iteration cap and a perturbed lower bound
        before the :class:`~repro.errors.ConvergenceError` (carrying
        its :class:`repro.robust.ConvergenceReport`) propagates.
    (remaining parameters as in :func:`repro.optimize.optimal_sd`)

    Golden-section search over ``(s_d0, sd_max]``; profit is unimodal
    for the exponential window: revenue and design savings both push
    towards sparse designs, silicon pushes towards dense ones.
    """
    closure = closure if closure is not None else TimingClosureModel(
        sd0=cost_model.design_model.sd0)
    iteration_cost = iteration_cost if iteration_cost is not None else IterationCostModel()
    sd0 = cost_model.design_model.sd0
    lo = sd0 * (1 + 1e-6) + 1e-9
    if sd_max <= lo:
        raise DomainError(f"sd_max={sd_max} must exceed sd0={sd0}")

    def neg_profit(sd: float) -> float:
        point = _evaluate(sd, market, cost_model, closure, iteration_cost,
                          n_transistors, feature_um, n_units, yield_fraction,
                          cost_per_cm2, regularity)
        return -point.profit_usd

    sd_opt, _, _, _ = retrying_golden_min(
        neg_profit, lo, sd_max, tol, max_iter,
        solver="economics.market.profit_optimal_sd", retry=retry, lo_floor=sd0)
    return _evaluate(sd_opt, market, cost_model, closure, iteration_cost,
                     n_transistors, feature_um, n_units, yield_fraction,
                     cost_per_cm2, regularity)
