"""The HTTP surface: routes over :class:`CostService`.

``start_server`` runs the routes on :class:`repro.obs.transport.HttpServer`,
one :mod:`asyncio` event loop on a daemon thread, and returns a
:class:`ServerHandle`. Routes:

* ``POST /evaluate`` / ``/sweep`` / ``/pareto`` / ``/sensitivity`` /
  ``/optimal_sd`` — one per public :class:`repro.api.Scenario` method,
  parsing the request dataclass :mod:`repro.serve.schemas` derives
  from that method's signature;
* ``GET /healthz`` — :func:`repro.obs.health_payload` liveness JSON;
* ``GET /metrics`` — the Prometheus registry, bridged live with both
  engine-side and serve-side (rate-limiter) state.

Concurrency: the loop thread frames and parses every request, and
answers every ``/evaluate`` there and then: pricing a point is a few
microseconds of stdlib arithmetic (:mod:`repro.serve.service`), less
than a hop to a thread would cost. Everything that may run long (the
grid routes, ``/healthz`` and ``/metrics``) runs on the transport's
bounded worker pool.

The error contract maps the :mod:`repro.errors` taxonomy onto status
codes — the body is always an :class:`ErrorResponse` whose ``code`` is
the exception class name:

===========================================  ======
condition                                    status
===========================================  ======
malformed JSON / unknown field / bad type    400
malformed HTTP framing (see the transport)   400
evaluation failure under RAISE               422
rate limit exceeded (``Retry-After`` set)    429
backend unavailable (``ExecutionError``)     503
unknown route                                404
unexpected exception (logged)                500
===========================================  ======

MASK/COLLECT failures are *not* errors: they return 200 with a
``diagnostics`` array (see :mod:`repro.serve.service`).

Every evaluation request makes one ``serve.<route>`` span covering the
service call — when tracing is enabled, span durations feed the
p50/p90/p99 sketches that ``/metrics`` renders as
``repro_span_duration_seconds`` — and counts once into the gated
``serve_requests_total{route,status}`` counter. Two stage timings
join the same sketches without making spans: ``serve.parse`` (body to
request dataclass) and ``serve.encode`` (response dataclass to bytes).
"""

from __future__ import annotations

import asyncio
import json
import math
from time import perf_counter

from ..errors import ExecutionError, ReproError
from ..obs import metrics as obs_metrics
from ..obs import telemetry as obs_telemetry
from ..obs.exposition import health_payload, render_prometheus
from ..obs.trace import span as obs_span
from ..obs.transport import HttpServer, Reply
from .ratelimit import TokenBucket
from .schemas import _ROUTES, ErrorResponse, EvaluateRequest
from .service import CostService

__all__ = ["ServerHandle", "start_server"]

_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ServerHandle:
    """Handle on a running serve instance (close it when done)."""

    def __init__(self, server: HttpServer, service: CostService,
                 limiter: "TokenBucket | None"):
        self._server = server
        self.service = service
        self.limiter = limiter

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0`` auto-assignment)."""
        return self._server.port

    @property
    def url(self) -> str:
        """Base URL of the server (``http://host:port``)."""
        return self._server.url

    def close(self) -> None:
        """Stop serving and release the port (idempotent)."""
        self._server.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _error_reply(status: int, exc: BaseException,
                 retry_after_s: "float | None" = None) -> Reply:
    """The wire form of a failure: taxonomy class name + message."""
    headers = ()
    if retry_after_s is not None:
        headers = (("Retry-After", str(max(1, math.ceil(retry_after_s)))),)
    error = ErrorResponse(code=type(exc).__name__, message=str(exc),
                          retry_after_s=retry_after_s)
    return Reply(status, (error.to_json() + "\n").encode("utf-8"),
                 headers=headers)


def _bridge_limiter_metrics(registry, limiter: TokenBucket) -> None:
    """Publish the rate limiter's state into the registry at scrape time:
    ``serve_ratelimit_lifetime_total{event=granted|throttled}`` by delta,
    plus a ``serve_ratelimit_tokens`` gauge."""
    stats = limiter.stats()
    for event, lifetime in (("granted", stats["granted"]),
                            ("throttled", stats["throttled"])):
        counter = registry.counter("serve_ratelimit_lifetime_total",
                                   {"event": event})
        delta = lifetime - counter.value
        if delta > 0:
            counter.inc(delta)
    registry.gauge("serve_ratelimit_tokens").set(stats["tokens"])


#: ``serve_requests_total`` increments by ``(route, status)``: a bounded
#: set, since every counted route is a known POST route.
_REQUESTS: dict = {}


def _count(route: str, status: int) -> None:
    inc = _REQUESTS.get((route, status))
    if inc is None:
        inc = _REQUESTS[route, status] = obs_metrics.counter_handle(
            "serve_requests_total", {"route": route, "status": str(status)})
    inc()


def _stage(name: str, seconds: float) -> None:
    """Fold one request stage's duration into the span sketches."""
    obs_metrics.observe_duration(f"serve.{name}", seconds)


class _Routes:
    """The transport handler: one call per framed request, on the loop."""

    def __init__(self, service: CostService, registry,
                 limiter: "TokenBucket | None") -> None:
        self._service = service
        self._registry = registry
        self._limiter = limiter

    def __call__(self, request):
        if request.method == "POST":
            return self._post(request)
        if request.method == "GET":
            if request.path == "/metrics":
                return self._metrics()
            if request.path == "/healthz":
                return self._healthz()
        return _error_reply(404, ExecutionError(
            f"no such route: {request.method} {request.path}"))

    # -- GET --------------------------------------------------------------

    async def _metrics(self) -> Reply:
        body = await asyncio.to_thread(self._render_metrics)
        return Reply(200, body, _METRICS_CONTENT_TYPE)

    def _render_metrics(self) -> bytes:
        obs_telemetry.bridge_engine_metrics(self._registry)
        if self._limiter is not None:
            _bridge_limiter_metrics(self._registry, self._limiter)
        return render_prometheus(self._registry).encode("utf-8")

    async def _healthz(self) -> Reply:
        payload = await asyncio.to_thread(health_payload)
        return Reply(200, (json.dumps(payload, sort_keys=True)
                           + "\n").encode("utf-8"))

    # -- POST -------------------------------------------------------------

    def _post(self, request):
        route = request.path.lstrip("/")
        request_type = _ROUTES.get(route)
        if request_type is None:
            return _error_reply(404, ExecutionError(
                f"no such route: POST {request.path}"))
        if self._limiter is not None:
            wait_s = self._limiter.try_acquire()
            if wait_s > 0.0:
                _count(route, 429)
                return _error_reply(429, ExecutionError(
                    f"rate limit exceeded; retry after {wait_s:.3f}s"),
                    retry_after_s=wait_s)
        began = perf_counter()
        try:
            parsed = request_type.from_json(request.body)
        except ReproError as exc:
            _count(route, 400)
            return _error_reply(400, exc)
        _stage("parse", perf_counter() - began)
        if route == "evaluate":
            return self._evaluate(parsed)
        return self._in_pool(route, parsed)

    def _evaluate(self, request: EvaluateRequest) -> Reply:
        """``/evaluate``, answered on the loop within its span."""
        try:
            with obs_span("serve.evaluate"):
                response = self._service.evaluate(request)
        except ReproError as exc:
            return self._failed("evaluate", exc)
        return self._ok("evaluate", response)

    async def _in_pool(self, route: str, request) -> Reply:
        """Run one blocking service call on the worker pool."""
        try:
            with obs_span(f"serve.{route}"):
                response = await asyncio.to_thread(
                    getattr(self._service, route), request)
        except ReproError as exc:
            return self._failed(route, exc)
        return self._ok(route, response)

    @staticmethod
    def _ok(route: str, response) -> Reply:
        began = perf_counter()
        body = (response.to_json() + "\n").encode("utf-8")
        _stage("encode", perf_counter() - began)
        _count(route, 200)
        return Reply(200, body)

    @staticmethod
    def _failed(route: str, exc: ReproError) -> Reply:
        status = 503 if isinstance(exc, ExecutionError) else 422
        _count(route, status)
        return _error_reply(status, exc)


def _transport_error(status: int, exc: BaseException, request) -> Reply:
    """The replies the transport makes itself, counted like the rest.

    A 400 when the HTTP framing is malformed (``request`` is ``None``:
    there is no route yet) and a 500, logged by the transport, when an
    unexpected exception escapes a route.
    """
    if request is not None and request.method == "POST":
        route = request.path.lstrip("/")
        if route in _ROUTES:
            _count(route, status)
    return _error_reply(status, exc)


def start_server(host: str = "127.0.0.1", port: int = 0, *,
                 registry=None,
                 rate: "float | None" = None,
                 burst: int = 16) -> ServerHandle:
    """Serve the cost model over HTTP from a daemon thread.

    ``port=0`` binds an ephemeral port — read it back from
    :attr:`ServerHandle.port`. ``rate`` (requests/second, ``burst``
    capacity) enables token-bucket limiting of the POST routes;
    ``None`` disables it. ``/healthz`` and ``/metrics`` are never rate
    limited, so probes and scrapers keep working under load.
    """
    svc = CostService()
    reg = registry if registry is not None else obs_metrics.get_registry()
    limiter = TokenBucket(rate, burst) if rate is not None else None
    server = HttpServer(host, port, _Routes(svc, reg, limiter),
                        error_reply=_transport_error, name="repro-serve")
    return ServerHandle(server, svc, limiter)
