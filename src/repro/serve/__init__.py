"""Cost-model-as-a-service: an HTTP layer over the Scenario facade.

The paper's cost model answers interactive questions — "what does this
die cost at this node, at this volume?" — and at production scale that
means a service, not a script. This package serves the
:class:`repro.api.Scenario` facade over stdlib HTTP/JSON:

* :mod:`repro.serve.schemas` — frozen request/response dataclasses;
  the single wire contract shared by server and client, the requests
  derived from the :class:`repro.api.Scenario` method signatures;
* :mod:`repro.serve.service` — :class:`CostService`, the
  transport-free coordinator (``/evaluate`` priced in stdlib floats,
  error-policy semantics);
* :mod:`repro.serve.app` — the routes (``POST /evaluate`` /
  ``/sweep`` / ``/pareto`` / ``/sensitivity`` / ``/optimal_sd``,
  ``GET /healthz`` / ``/metrics``) on the :mod:`repro.obs.transport`
  event-loop server, rate limiting, and the error-taxonomy →
  status-code mapping;
* :mod:`repro.serve.client` — :class:`ServeClient`, typed stdlib
  access to a running instance;
* ``python -m repro.serve`` — the CLI entry point.

Start in-process (tests, notebooks)::

    from repro import serve

    with serve.start_server() as server:
        client = serve.ServeClient(server.url)
        print(client.evaluate({"n_transistors": 1e7, "feature_um": 0.18}))

See ``docs/serving.md`` for the endpoint and error-contract reference.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "client": ("ServeClient", "ServeError"),
    "ratelimit": ("TokenBucket",),
    "schemas": (
        "DiagnosticPayload", "ErrorResponse", "EvaluatedPoint",
        "EvaluateRequest", "EvaluateResponse", "OptimalSdRequest",
        "OptimalSdResponse", "ParetoPoint", "ParetoRequest",
        "ParetoResponse", "SensitivityRequest", "SensitivityResponse",
        "SweepRequest", "SweepResponse",
    ),
    "service": ("CostService",),
    "app": ("ServerHandle", "start_server"),
})

__all__ = [
    "CostService",
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
    "ServeClient",
    "ServeError",
    "ServerHandle",
    "SweepRequest",
    "SweepResponse",
    "TokenBucket",
    "start_server",
]
