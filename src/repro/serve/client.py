"""A stdlib client speaking the exact wire schemas the server parses.

:class:`ServeClient` wraps :mod:`urllib.request` around the frozen
dataclasses of :mod:`repro.serve.schemas` — requests are built with the
same ``to_json`` the server's tests round-trip, responses parse with
the same ``from_json`` the server renders with. Non-2xx statuses raise
:class:`ServeError`, which carries the parsed :class:`ErrorResponse`
so callers branch on the error-taxonomy ``code`` (``"DomainError"``,
``"ConvergenceError"``, ...) and honour ``retry_after_s`` on 429s
instead of scraping messages.

>>> client = ServeClient("http://127.0.0.1:8000")   # doctest: +SKIP
>>> client.evaluate(Scenario(n_transistors=1e7,
...                          feature_um=0.18))  # doctest: +SKIP
"""

from __future__ import annotations

import urllib.error
import urllib.request

from ..errors import ExecutionError
from .schemas import (
    _SCENARIO,
    ErrorResponse,
    EvaluateRequest,
    EvaluateResponse,
    OptimalSdRequest,
    OptimalSdResponse,
    ParetoRequest,
    ParetoResponse,
    SensitivityRequest,
    SensitivityResponse,
    SweepRequest,
    SweepResponse,
)

__all__ = ["ServeClient", "ServeError"]


class ServeError(ExecutionError):
    """A non-2xx server reply, carrying the parsed error body.

    ``status`` is the HTTP code; ``error`` the :class:`ErrorResponse`
    (taxonomy ``code``, message, diagnostics, ``retry_after_s``).
    """

    def __init__(self, status: int, error: ErrorResponse):
        super().__init__(f"HTTP {status}: {error.code}: {error.message}")
        self.status = status
        self.error = error


def _serve_error(exc: urllib.error.HTTPError) -> ServeError:
    """Read an HTTP error reply into a :class:`ServeError`, closing it."""
    with exc:
        text = exc.read().decode("utf-8")
    return ServeError(exc.code, ErrorResponse.from_json(text))


def _as_scenario(scenario):
    """Accept a facade ``Scenario``, or its wire fields as a plain dict."""
    return _SCENARIO.decode(scenario) if isinstance(scenario, dict) \
        else scenario


class ServeClient:
    """Typed access to a running ``repro.serve`` instance.

    Each method accepts scenarios as :class:`repro.api.Scenario` objects
    or as plain dicts of their wire fields, and returns the route's
    response dataclass. A scenario with another model than
    ``PAPER_FIGURE4_MODEL``, or a wafer override, raises
    :class:`repro.errors.DomainError` before anything is sent.
    """

    def __init__(self, base_url: str, timeout_s: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)

    def _post(self, route: str, request, response_type):
        url = f"{self.base_url}/{route}"
        body = request.to_json().encode("utf-8")
        http_request = urllib.request.Request(
            url, data=body, method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(http_request,
                                        timeout=self.timeout_s) as reply:
                text = reply.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise _serve_error(exc) from exc
        return response_type.from_json(text)

    def _get_text(self, route: str) -> str:
        url = f"{self.base_url}/{route}"
        try:
            with urllib.request.urlopen(url,
                                        timeout=self.timeout_s) as reply:
                return reply.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise _serve_error(exc) from exc

    # -- routes ----------------------------------------------------------

    def evaluate(self, scenario, *, policy: str = "raise"
                 ) -> EvaluateResponse:
        """Price one scenario (``POST /evaluate``, single form)."""
        return self.evaluate_many([scenario], policy=policy)

    def evaluate_many(self, scenarios, *, policy: str = "raise"
                      ) -> EvaluateResponse:
        """Price a batch of scenarios (``POST /evaluate``)."""
        request = EvaluateRequest(
            scenarios=tuple(_as_scenario(s) for s in scenarios),
            policy=policy)
        return self._post("evaluate", request, EvaluateResponse)

    def sweep(self, scenario, *, parameter: str = "sd", values=None,
              policy: str = "raise") -> SweepResponse:
        """Sweep one parameter's cost curve (``POST /sweep``)."""
        request = SweepRequest(scenario=_as_scenario(scenario),
                               parameter=parameter,
                               values=None if values is None
                               else tuple(float(v) for v in values),
                               policy=policy)
        return self._post("sweep", request, SweepResponse)

    def pareto(self, scenario, *, values=None,
               policy: str = "raise") -> ParetoResponse:
        """The non-dominated cost/area front (``POST /pareto``)."""
        request = ParetoRequest(scenario=_as_scenario(scenario),
                                values=None if values is None
                                else tuple(float(v) for v in values),
                                policy=policy)
        return self._post("pareto", request, ParetoResponse)

    def sensitivity(self, scenario, *, parameters=None,
                    rel_step: float = 0.05, sd_max: float = 5000.0,
                    policy: str = "raise") -> SensitivityResponse:
        """Parameter elasticities (``POST /sensitivity``)."""
        request = SensitivityRequest(
            scenario=_as_scenario(scenario),
            parameters=None if parameters is None else tuple(parameters),
            rel_step=rel_step, sd_max=sd_max, policy=policy)
        return self._post("sensitivity", request, SensitivityResponse)

    def optimal_sd(self, scenario, *, sd_max: float = 5000.0,
                   tol: float = 1e-10, max_iter: int = 500,
                   retry: bool = False) -> OptimalSdResponse:
        """The cost-minimising ``s_d`` (``POST /optimal_sd``)."""
        request = OptimalSdRequest(scenario=_as_scenario(scenario),
                                   sd_max=sd_max, tol=tol,
                                   max_iter=max_iter, retry=retry)
        return self._post("optimal_sd", request, OptimalSdResponse)

    def healthz(self) -> dict:
        """The liveness payload (``GET /healthz``)."""
        import json
        return json.loads(self._get_text("healthz"))

    def metrics(self) -> str:
        """The raw Prometheus text exposition (``GET /metrics``)."""
        return self._get_text("metrics")
