"""The facade API — :class:`Scenario` in, :class:`ScenarioResult` out.

This module is the documented entry point for pricing designs with the
paper's eq.-(4) cost-model family. A :class:`Scenario` freezes one
operating point — the product (``N_tr``, node), the drawing density
``s_d``, the wafer run, and the yield/cost anchors — and

* :func:`evaluate` prices one scenario;
* :func:`evaluate_many` prices a batch, dispatching scenarios that
  share a cost model through one vectorized
  :mod:`repro.engine` call.

>>> from repro.api import Scenario, evaluate
>>> result = evaluate(Scenario(n_transistors=10e6, feature_um=0.18))
>>> round(result.die_cost_usd)  # doctest: +SKIP
66

The lower-level per-module entry points (``repro.cost``,
``repro.optimize``, ...) remain available for custom analyses; new
callers should start here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._compat import renamed_kwargs
from .constants import ASSUMED_YIELD, MANUFACTURING_COST_PER_CM2_USD
from .cost.total import PAPER_FIGURE4_MODEL, TotalCostModel
from .data.records import RoadmapNode
from .density.metrics import area_from_sd
from .engine import evaluate_grid, map_scalar
from .engine.kernels import OperatingPointsKernel
from .errors import DomainError, ReproError
from .obs import metrics as obs_metrics
from .obs.instrument import traced
from .robust.policy import ErrorPolicy
from .serve.schemas import (
    DiagnosticPayload,
    ErrorResponse,
    EvaluatedPoint,
    EvaluateRequest,
    EvaluateResponse,
    OptimalSdRequest,
    OptimalSdResponse,
    ParetoPoint,
    ParetoRequest,
    ParetoResponse,
    ScenarioPayload,
    SensitivityRequest,
    SensitivityResponse,
    SweepRequest,
    SweepResponse,
)
from .wafer.specs import WaferSpec

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
    "ScenarioPayload",
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

    @renamed_kwargs(cm_sq="cost_per_cm2")
    def replace(self, **changes) -> "Scenario":
        """A copy with the given fields changed (sweep construction aid).

        Deprecated keyword spellings (``cm_sq``) are normalised through
        the same :func:`repro._compat.renamed_kwargs` shim as the rest
        of the public API, so the replace path honours the
        ``DeprecationWarning`` contract too.
        """
        return replace(self, **changes)

    # -- analysis methods (one per HTTP route; see repro.serve) ----------
    #
    # Each method delegates to the matching repro.optimize free function
    # with this scenario's operating point filled in. The parameter
    # names mirror the repro.serve request schemas field for field —
    # the API006 lint rule enforces the parity.

    def evaluate(self) -> "ScenarioResult":
        """Price this scenario (always ``RAISE``; failures propagate)."""
        return evaluate(self)

    def sweep(self, parameter: str = "sd", values=None,
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

    def pareto(self, values=None, policy: ErrorPolicy = ErrorPolicy.RAISE,
               diagnostics: list | None = None):
        """The non-dominated (area, cost, design budget) front.

        Evaluates candidate ``s_d`` values (``values`` or the auto
        grid) at this operating point and returns the Pareto front as a
        list of :class:`repro.optimize.DesignPoint` — empty when every
        candidate was infeasible under ``MASK`` (each dropped candidate
        lands in the optional ``diagnostics`` list).
        """
        from .optimize import evaluate_points, pareto_front
        points = evaluate_points(self.cost_model, self.n_transistors,
                                 self.feature_um, self.n_wafers,
                                 self.yield_fraction, self.cost_per_cm2,
                                 sd_values=values, policy=policy,
                                 diagnostics=diagnostics)
        if not points:
            return []
        return pareto_front(points)

    def sensitivity(self, parameters=None, rel_step: float = 0.05,
                    sd_max: float = 5000.0,
                    policy: ErrorPolicy = ErrorPolicy.RAISE) -> dict:
        """Optimal-cost elasticities of this operating point.

        Delegates to :func:`repro.optimize.parameter_elasticities`: for
        each parameter (default: all of them), the relative change of
        the *optimal* transistor cost per relative change of that
        parameter. NaN entries mark perturbed solves that failed under
        ``MASK``.
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
                   max_iter: int = 500, retry=None):
        """The cost-minimising density ``s_d`` at this operating point.

        Delegates to :func:`repro.optimize.optimal_sd` (golden-section
        over eq. 4) and returns its
        :class:`repro.optimize.OptimumResult`. Pass a
        :class:`repro.robust.RetryBudget` as ``retry`` to widen the
        bracket on :class:`repro.errors.ConvergenceError`.
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
    :attr:`ErrorPolicy.MASK` (check :attr:`ok`).
    """

    scenario: Scenario
    cost_per_transistor_usd: float
    area_cm2: float
    backend: str = "numpy"

    @property
    def die_cost_usd(self) -> float:
        """Total die cost: cost per transistor × ``N_tr``."""
        return self.cost_per_transistor_usd * self.scenario.n_transistors

    @property
    def ok(self) -> bool:
        """True when the scenario evaluated to a finite cost."""
        return math.isfinite(self.cost_per_transistor_usd)


def _grouped(scenarios: list[Scenario]) -> list[tuple[TotalCostModel, list[int]]]:
    """Group scenario indices by cost-model identity (repr of the frozen
    dataclass — the same identity the engine cache keys on)."""
    groups: dict[str, tuple[TotalCostModel, list[int]]] = {}
    for i, scn in enumerate(scenarios):
        model = scn.cost_model
        _, indices = groups.setdefault(repr(model), (model, []))
        indices.append(i)
    return list(groups.values())


def _area(scenario: Scenario, guarded: bool) -> float:
    if not guarded:
        return float(area_from_sd(scenario.sd, scenario.n_transistors,
                                  scenario.feature_um))
    try:
        return float(area_from_sd(scenario.sd, scenario.n_transistors,
                                  scenario.feature_um))
    except ReproError:
        return math.nan


@traced(equation="4")
def evaluate_many(scenarios, policy: ErrorPolicy = ErrorPolicy.RAISE,
                  diagnostics: list | None = None,
                  cache: bool = True) -> list[ScenarioResult]:
    """Price a batch of scenarios, vectorizing per shared cost model.

    Under ``RAISE`` every group of scenarios sharing a model evaluates
    in one :func:`repro.engine.evaluate_grid` batch (memo-cached,
    threaded past the engine's size cut-over). Under ``MASK``/``COLLECT``
    the batch runs point-wise so each infeasible scenario produces the
    exact legacy :class:`~repro.robust.Diagnostic` — MASK yields NaN
    results (plus entries in the optional ``diagnostics`` list),
    COLLECT raises the aggregate after every scenario was tried.
    """
    policy = ErrorPolicy.coerce(policy)
    scenarios = list(scenarios)
    n = len(scenarios)
    costs = np.full(n, np.nan, dtype=float)
    arrays = tuple(
        np.asarray([getattr(s, name) for s in scenarios], dtype=float)
        for name in ("sd", "n_transistors", "feature_um", "n_wafers",
                     "yield_fraction", "cost_per_cm2"))
    backend = "numpy"
    if policy is ErrorPolicy.RAISE:
        for model, indices in _grouped(scenarios):
            kernel = OperatingPointsKernel(model, *arrays)
            evaluation = evaluate_grid(
                kernel, np.asarray(indices, dtype=float), policy=policy,
                where="api.evaluate_many", equation="4",
                parameter="scenario", cache=cache)
            costs[indices] = evaluation.values
            backend = evaluation.backend
        collected: tuple = ()
    else:
        log = None
        for model, indices in _grouped(scenarios):
            kernel = OperatingPointsKernel(model, *arrays)
            group_costs, log = map_scalar(
                indices, kernel.point, policy=policy,
                where="api.evaluate_many", equation="4",
                parameter="scenario", value_of=float,
                on_error=lambda i: math.nan, log=log)
            costs[indices] = group_costs
        collected = log.finish() if log is not None else ()
    if diagnostics is not None:
        diagnostics.extend(collected)
    guarded = policy is not ErrorPolicy.RAISE
    obs_metrics.observe("api_evaluate_many_scenarios", float(n))
    return [
        ScenarioResult(scenario=scn, cost_per_transistor_usd=float(costs[i]),
                       area_cm2=_area(scn, guarded), backend=backend)
        for i, scn in enumerate(scenarios)
    ]


@traced(equation="4")
def evaluate(scenario: Scenario) -> ScenarioResult:
    """Price one scenario (always ``RAISE``; failures propagate).

    Single evaluations skip the engine's memo cache — one-point grids
    would only churn the LRU.
    """
    return evaluate_many([scenario], cache=False)[0]
