"""The facade API — :class:`Scenario` in, :class:`ScenarioResult` out.

This module is the documented entry point for pricing designs with the
paper's eq.-(4) cost-model family. A :class:`Scenario` freezes one
operating point — the product (``N_tr``, node), the drawing density
``s_d``, the wafer run, and the yield/cost anchors — and

* :func:`evaluate` prices one scenario;
* :func:`evaluate_many` prices a batch, one operating point at a time
  in stdlib floats (:func:`repro.engine.points.price_points`): no
  ``s_d`` curve is shared between two scenarios, so there is nothing
  to vectorise.

>>> from repro.api import Scenario, evaluate
>>> result = evaluate(Scenario(n_transistors=10e6, feature_um=0.18))
>>> round(result.die_cost_usd)  # doctest: +SKIP
66

The lower-level per-module entry points (``repro.cost``,
``repro.optimize``, ...) remain available for custom analyses; new
callers should start here.

:class:`Scenario` is also the wire type of :mod:`repro.serve`: a
request carries its fields but ``model`` and ``wafer``, and each route's
request class is derived from the signature of the method it serves.
Pricing a point imports no NumPy, so the server can use it without.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from . import _lazy
from .constants import ASSUMED_YIELD, MANUFACTURING_COST_PER_CM2_USD
from .cost.total import PAPER_FIGURE4_MODEL, TotalCostModel
from .engine.points import price_points
from .errors import DomainError
from .obs import metrics as obs_metrics
from .obs.instrument import traced
from .robust.policy import ErrorPolicy
from .wafer.specs import WaferSpec

if TYPE_CHECKING:  # annotations only: pricing a point loads neither
    from collections.abc import Iterable, Sequence

    from .data.records import RoadmapNode
    from .robust.retry import RetryBudget

# The wire schemas, one surface with the HTTP layer (see repro.serve),
# load on first use: pricing a design never imports them.
__getattr__, __dir__ = _lazy.attach(__name__, {
    "serve.schemas": (
        "DiagnosticPayload", "ErrorResponse", "EvaluatedPoint",
        "EvaluateRequest", "EvaluateResponse", "OptimalSdRequest",
        "OptimalSdResponse", "ParetoPoint", "ParetoRequest", "ParetoResponse",
        "SensitivityRequest", "SensitivityResponse", "SweepRequest",
        "SweepResponse",
    ),
})

__all__ = [
    "Scenario",
    "ScenarioResult",
    "evaluate",
    "evaluate_many",
    # wire schemas (one surface with the HTTP layer; see repro.serve)
    "DiagnosticPayload",
    "ErrorResponse",
    "EvaluatedPoint",
    "EvaluateRequest",
    "EvaluateResponse",
    "OptimalSdRequest",
    "OptimalSdResponse",
    "ParetoPoint",
    "ParetoRequest",
    "ParetoResponse",
    "SensitivityRequest",
    "SensitivityResponse",
    "SweepRequest",
    "SweepResponse",
]


@dataclass(frozen=True)
class Scenario:
    """One frozen operating point of the eq.-(4) cost model.

    Attributes
    ----------
    n_transistors:
        Design size ``N_tr`` (transistors).
    feature_um:
        Technology node ``λ`` in µm.
    sd:
        Design decompression index ``s_d`` (eq. 2). Default 300 — the
        middle of the Table-A1 logic range.
    n_wafers:
        Production volume the development cost amortises over (eq. 5).
    yield_fraction:
        Functional yield ``Y`` in (0, 1].
    cost_per_cm2:
        Manufacturing cost ``C_sq`` ($/cm²).
    model:
        The :class:`~repro.cost.total.TotalCostModel` to price under;
        defaults to the paper's Figure-4 configuration.
    wafer:
        Optional wafer-format override; ``None`` keeps ``model.wafer``.
    label:
        Free-form tag carried through to the result (plot legends,
        report rows).

    The record performs no eager validation: infeasible values surface
    at evaluation time under the caller's :class:`ErrorPolicy`, exactly
    like the lower-level model calls.
    """

    n_transistors: float
    feature_um: float
    sd: float = 300.0
    n_wafers: float = 5_000.0
    yield_fraction: float = ASSUMED_YIELD
    cost_per_cm2: float = MANUFACTURING_COST_PER_CM2_USD
    model: TotalCostModel = PAPER_FIGURE4_MODEL
    wafer: WaferSpec | None = None
    label: str = ""

    @property
    def cost_model(self) -> TotalCostModel:
        """The effective model: ``model`` with the wafer override applied."""
        if self.wafer is None:
            return self.model
        return replace(self.model, wafer=self.wafer)

    @classmethod
    def from_node(cls, node: RoadmapNode, **overrides) -> "Scenario":
        """Build a scenario from an ITRS roadmap node.

        ``N_tr`` and the feature size come from the node; ``sd``
        defaults to the node's roadmap-implied density. Any
        :class:`Scenario` field can be overridden by keyword.
        """
        values = {
            "n_transistors": node.mpu_transistors_m * 1e6,
            "feature_um": node.feature_um,
            "sd": node.implied_sd(),
            "label": f"node-{node.year}",
        }
        values.update(overrides)
        return cls(**values)

    def replace(self, **changes) -> "Scenario":
        """A copy with the given fields changed (sweep construction aid).

        An unknown field name raises :class:`TypeError`.
        """
        return replace(self, **changes)

    # -- analysis methods (one per HTTP route; see repro.serve) ----------
    #
    # Each method delegates to the matching repro.optimize free function
    # with this scenario's operating point filled in. repro.serve derives
    # each route's request fields from the signature, so the annotations
    # are also the wire types.

    def evaluate(self) -> "ScenarioResult":
        """Price this scenario (always ``RAISE``; failures propagate)."""
        return evaluate(self)

    def sweep(self, parameter: str = "sd",
              values: Sequence[float] | None = None,
              policy: ErrorPolicy = ErrorPolicy.RAISE):
        """Sweep one parameter's cost curve through this operating point.

        ``parameter="sd"`` runs :func:`repro.optimize.sd_sweep` over
        candidate densities (``values`` or the auto grid);
        ``parameter="n_wafers"`` runs
        :func:`repro.optimize.volume_sweep` over production volumes.
        Returns the :class:`repro.optimize.SweepResult`.
        """
        from .optimize import sd_sweep, volume_sweep
        if parameter == "sd":
            return sd_sweep(self.cost_model, self.n_transistors,
                            self.feature_um, self.n_wafers,
                            self.yield_fraction, self.cost_per_cm2,
                            sd_values=values, policy=policy)
        if parameter == "n_wafers":
            return volume_sweep(self.cost_model, self.sd, self.n_transistors,
                                self.feature_um, self.yield_fraction,
                                self.cost_per_cm2, n_wafers_values=values,
                                policy=policy)
        raise DomainError(
            f"cannot sweep parameter {parameter!r}; "
            "known: 'sd', 'n_wafers'")

    def pareto(self, values: Sequence[float] | None = None,
               policy: ErrorPolicy = ErrorPolicy.RAISE,
               diagnostics: list | None = None):
        """The non-dominated (area, cost, design budget) front.

        Evaluates candidate ``s_d`` values (``values`` or the auto
        grid) at this operating point and returns the Pareto front as a
        list of :class:`repro.optimize.DesignPoint` — empty when every
        candidate was infeasible under ``MASK`` (each dropped candidate
        lands in the optional ``diagnostics`` list).
        """
        from .optimize import evaluate_front
        return evaluate_front(self.cost_model, self.n_transistors,
                              self.feature_um, self.n_wafers,
                              self.yield_fraction, self.cost_per_cm2,
                              sd_values=values, policy=policy,
                              diagnostics=diagnostics)

    def sensitivity(self, parameters: Sequence[str] | None = None,
                    rel_step: float = 0.05,
                    sd_max: float = 5000.0,
                    policy: ErrorPolicy = ErrorPolicy.RAISE) -> dict:
        """Elasticities of the cost-optimal density at this operating point.

        Delegates to :func:`repro.optimize.parameter_elasticities`: for
        each parameter (default: all of them), the relative change of
        the optimal ``s_d`` per relative change of that parameter,
        ``d ln(sd_opt) / d ln(θ)`` by central differences. NaN entries
        mark perturbed solves that failed under ``MASK``.
        """
        from .optimize import parameter_elasticities
        point = {"n_transistors": self.n_transistors,
                 "feature_um": self.feature_um, "n_wafers": self.n_wafers,
                 "yield_fraction": self.yield_fraction,
                 "cost_per_cm2": self.cost_per_cm2}
        return parameter_elasticities(self.cost_model, point,
                                      parameters=parameters,
                                      rel_step=rel_step, sd_max=sd_max,
                                      policy=policy)

    def optimal_sd(self, sd_max: float = 5000.0, tol: float = 1e-10,
                   max_iter: int = 500, retry: RetryBudget | None = None):
        """The cost-minimising density ``s_d`` at this operating point.

        Delegates to :func:`repro.optimize.optimal_sd` (the root of
        eq. (4)'s stationarity equation) and returns its
        :class:`repro.optimize.OptimumResult`. Pass a
        :class:`repro.robust.RetryBudget` as ``retry`` to widen a
        clipped bracket and to grow the iteration cap on
        :class:`repro.errors.ConvergenceError`.
        """
        from .optimize import optimal_sd
        return optimal_sd(self.cost_model, self.n_transistors,
                          self.feature_um, self.n_wafers,
                          self.yield_fraction, self.cost_per_cm2,
                          sd_max=sd_max, tol=tol, max_iter=max_iter,
                          retry=retry)


@dataclass(frozen=True)
class ScenarioResult:
    """The priced scenario.

    ``cost_per_transistor_usd`` is NaN when the point was masked under
    :attr:`ErrorPolicy.MASK` (check :attr:`ok`). ``backend`` names the
    arithmetic that priced it: ``"python"``, stdlib floats.
    """

    scenario: Scenario
    cost_per_transistor_usd: float
    area_cm2: float
    backend: str = "python"

    @property
    def die_cost_usd(self) -> float:
        """Total die cost: cost per transistor × ``N_tr``."""
        return self.cost_per_transistor_usd * self.scenario.n_transistors

    @property
    def ok(self) -> bool:
        """True when the scenario evaluated to a finite cost."""
        return math.isfinite(self.cost_per_transistor_usd)


def _pricing(model: TotalCostModel):
    """What :func:`price_points` prices under ``model``: its scalar
    parameters, or its own ``transistor_cost`` when it has none."""
    params = model.scalar_params
    return model.transistor_cost if params is None else params


@traced(equation="4")
def evaluate_many(scenarios: Iterable[Scenario],
                  policy: ErrorPolicy = ErrorPolicy.RAISE,
                  diagnostics: list | None = None) -> list[ScenarioResult]:
    """Price a batch of scenarios, one operating point at a time.

    Each scenario is priced under its own cost model's
    :attr:`~repro.cost.TotalCostModel.scalar_params` by
    :func:`repro.engine.points.price_points`; a model whose components
    are not all their exact stock types (a subclass may override a cost
    method) is priced by its own ``transistor_cost``. ``RAISE``
    propagates the first failure; ``MASK`` yields NaN results (plus
    entries in the optional ``diagnostics`` list); ``COLLECT`` raises
    the aggregate after every scenario was tried.
    """
    scenarios = list(scenarios)
    values, collected = price_points(
        scenarios, [_pricing(s.cost_model) for s in scenarios], policy)
    if diagnostics is not None:
        diagnostics.extend(collected)
    obs_metrics.observe("api_evaluate_many_scenarios", float(len(scenarios)))
    return [ScenarioResult(scenario=scn, cost_per_transistor_usd=cost,
                           area_cm2=area)
            for scn, (cost, area) in zip(scenarios, values)]


@traced(equation="4")
def evaluate(scenario: Scenario) -> ScenarioResult:
    """Price one scenario (always ``RAISE``; failures propagate)."""
    return evaluate_many([scenario])[0]
