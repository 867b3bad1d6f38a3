"""The serve coordinator: wire requests in, facade results out.

:class:`CostService` is the transport-free middle layer between the
HTTP routes (:mod:`repro.serve.app`) and the library. It owns the
error-policy contract: RAISE failures propagate as :mod:`repro.errors`
exceptions (the HTTP layer maps them to 422 with the taxonomy code),
MASK/COLLECT return 200 responses carrying a ``diagnostics`` array
mirroring :class:`repro.robust.DiagnosticLog`.

A request holds facade :class:`repro.api.Scenario` objects; a wire
scenario carries the default model. ``/evaluate`` prices each one as
``repro.api.evaluate_many`` does, with
:func:`repro.engine.points.price_points` under its own model's pricing:
a few microseconds of stdlib arithmetic per point, the same floats as
``Scenario.evaluate``, and no NumPy import. The grid routes call
the ``Scenario`` methods, which import NumPy on first use; without it
they raise :class:`repro.errors.ExecutionError`, which the HTTP layer
maps to 503.
"""

from __future__ import annotations

import math

from ..api import _pricing
from ..engine.points import price_points
from ..errors import CollectedErrors, ExecutionError
from .schemas import (
    DiagnosticPayload,
    EvaluatedPoint,
    EvaluateRequest,
    EvaluateResponse,
    OptimalSdRequest,
    OptimalSdResponse,
    ParetoPoint,
    ParetoRequest,
    ParetoResponse,
    SensitivityRequest,
    SensitivityResponse,
    SweepRequest,
    SweepResponse,
)

__all__ = ["CostService"]


def _diag_payloads(diagnostics) -> tuple:
    return tuple(DiagnosticPayload.from_diagnostic(d) for d in diagnostics)


def _evaluated(scenario, cost: float, area: float) -> EvaluatedPoint:
    ok = math.isfinite(cost)
    return EvaluatedPoint(
        label=scenario.label,
        cost_per_transistor_usd=cost if ok else None,
        area_cm2=area if math.isfinite(area) else None,
        die_cost_usd=cost * scenario.n_transistors if ok else None,
        ok=ok)


class CostService:
    """Evaluate wire requests against the library.

    Holds no state: one instance is shared by the server's event loop,
    which answers ``/evaluate``, and its worker threads, which run the
    grid routes.
    """

    def evaluate(self, request: EvaluateRequest) -> EvaluateResponse:
        """Price the request's scenarios under its error policy.

        A RAISE failure raises its :mod:`repro.errors` exception. MASK
        returns masked points as ``null`` costs plus one diagnostic per
        failure; COLLECT returns the aggregated diagnostics with no
        results when anything failed.
        """
        scenarios = request.scenarios
        try:
            values, diagnostics = price_points(
                scenarios, [_pricing(s.cost_model) for s in scenarios],
                request.policy)
        except CollectedErrors as exc:
            return EvaluateResponse(results=(),
                                    diagnostics=_diag_payloads(exc.diagnostics))
        return EvaluateResponse(
            results=tuple(_evaluated(scenario, cost, area) for scenario,
                          (cost, area) in zip(scenarios, values)),
            diagnostics=_diag_payloads(diagnostics))

    # -- grid routes (NumPy-backed facade methods) -----------------------

    @staticmethod
    def _require_numpy(route: str) -> None:
        try:
            import numpy  # noqa: F401
        except ImportError:
            raise ExecutionError(
                f"/{route} needs the NumPy evaluation backend, which is "
                "not available on this interpreter") from None

    def sweep(self, request: SweepRequest) -> SweepResponse:
        """``Scenario.sweep`` over HTTP (one grid job per request)."""
        self._require_numpy("sweep")
        try:
            result = request.scenario.sweep(parameter=request.parameter,
                                            values=request.values,
                                            policy=request.policy)
        except CollectedErrors as exc:
            return SweepResponse(parameter=request.parameter, x=(), cost=(),
                                 x_opt=None, cost_opt=None,
                                 n_masked=len(exc.diagnostics),
                                 diagnostics=_diag_payloads(exc.diagnostics))
        x = tuple(float(v) for v in result.x)
        cost = tuple(None if math.isnan(float(c)) else float(c)
                     for c in result.cost)
        feasible = result.n_masked < len(x)
        return SweepResponse(
            parameter=result.parameter, x=x, cost=cost,
            x_opt=result.x_opt if feasible else None,
            cost_opt=result.cost_opt if feasible else None,
            n_masked=result.n_masked,
            diagnostics=_diag_payloads(result.diagnostics))

    def pareto(self, request: ParetoRequest) -> ParetoResponse:
        """``Scenario.pareto`` over HTTP: the front plus its knee."""
        self._require_numpy("pareto")
        from ..optimize import knee_point
        diagnostics: list = []
        try:
            front = request.scenario.pareto(values=request.values,
                                            policy=request.policy,
                                            diagnostics=diagnostics)
        except CollectedErrors as exc:
            return ParetoResponse(front=(), knee=None,
                                  diagnostics=_diag_payloads(exc.diagnostics))
        points = tuple(
            ParetoPoint(sd=p.sd, die_area_cm2=p.die_area_cm2,
                        transistor_cost_usd=p.transistor_cost_usd,
                        design_cost_usd=p.design_cost_usd)
            for p in front)
        knee = None
        if front:
            k = knee_point(front)
            knee = ParetoPoint(sd=k.sd, die_area_cm2=k.die_area_cm2,
                               transistor_cost_usd=k.transistor_cost_usd,
                               design_cost_usd=k.design_cost_usd)
        return ParetoResponse(front=points, knee=knee,
                              diagnostics=_diag_payloads(diagnostics))

    def sensitivity(self, request: SensitivityRequest) -> SensitivityResponse:
        """``Scenario.sensitivity`` over HTTP: parameter elasticities."""
        self._require_numpy("sensitivity")
        try:
            elasticities = request.scenario.sensitivity(
                parameters=request.parameters, rel_step=request.rel_step,
                sd_max=request.sd_max, policy=request.policy)
        except CollectedErrors as exc:
            return SensitivityResponse(
                elasticities={}, diagnostics=_diag_payloads(exc.diagnostics))
        safe = {name: (None if math.isnan(value) else value)
                for name, value in elasticities.items()}
        return SensitivityResponse(elasticities=safe)

    def optimal_sd(self, request: OptimalSdRequest) -> OptimalSdResponse:
        """``Scenario.optimal_sd`` over HTTP (RAISE semantics only)."""
        self._require_numpy("optimal_sd")
        from ..robust import DEFAULT_RETRY_BUDGET
        retry = DEFAULT_RETRY_BUDGET if request.retry else None
        result = request.scenario.optimal_sd(
            sd_max=request.sd_max, tol=request.tol,
            max_iter=request.max_iter, retry=retry)
        return OptimalSdResponse(
            sd_opt=result.sd_opt, cost_opt=result.cost_opt,
            iterations=result.iterations,
            bracket=(float(result.bracket[0]), float(result.bracket[1])),
            attempts=result.attempts)
