"""The serve coordinator: wire schemas in, facade results out.

:class:`CostService` is the transport-free middle layer between the
HTTP routes (:mod:`repro.serve.app`) and the :class:`repro.api.Scenario`
facade. It owns the traffic engineering the tentpole asks for:

* a **shared memo cache** — one :class:`repro.engine.GridCache` keyed
  per scenario, so repeated operating points across requests (and
  across clients) are priced once; hit/miss/eviction counters are
  bridged into the metrics registry as labeled series;
* the **micro-batcher** — concurrent RAISE-policy evaluations coalesce
  into one ``evaluate_many`` engine call
  (:class:`repro.serve.MicroBatcher`), bit-identical to the sequential
  path because the batch kernel is elementwise;
* the **error-policy contract** — RAISE failures propagate as
  :mod:`repro.errors` exceptions (the HTTP layer maps them to 422 with
  the taxonomy code), MASK/COLLECT return 200 responses carrying a
  ``diagnostics`` array mirroring :class:`repro.robust.DiagnosticLog`.

The module imports the NumPy-backed facade lazily: on a stdlib-only
interpreter the service still answers ``/evaluate`` through the
:mod:`repro.engine.pykernels` scalar fallback (grid routes degrade to
:class:`repro.errors.ExecutionError`, which the HTTP layer maps to
503).
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading

from ..constants import EQ6_A0, EQ6_P1, EQ6_P2, EQ6_SD0
from ..engine import pykernels
from ..errors import CollectedErrors, DomainError, ExecutionError
from ..obs import metrics as obs_metrics
from .batcher import MicroBatcher
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

#: 200 mm wafer area in cm² (radius 10 cm), restated as a literal so
#: the stdlib-only fallback needs no import of the NumPy-backed wafer
#: package; equals ``WAFER_200MM.area_cm2`` bit-for-bit.
_WAFER_200MM_AREA_CM2 = math.pi * 10.0 ** 2

#: The six operating-point floats of a serve cache key, as IEEE bytes.
_OPERATING_POINT = struct.Struct("<6d")


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _diag_payloads(diagnostics) -> tuple:
    return tuple(DiagnosticPayload.from_diagnostic(d) for d in diagnostics)


class _Pending:
    """A RAISE ``/evaluate`` between its cache lookup and its response.

    ``values[i]`` is ``(cost, area)`` for a cache hit and ``None`` for
    a miss; ``misses`` lists the missed indices in request order.
    """

    __slots__ = ("payloads", "keys", "values", "misses", "backend")

    def __init__(self, payloads, keys, values, misses, backend) -> None:
        self.payloads = payloads
        self.keys = keys
        self.values = values
        self.misses = misses
        self.backend = backend


def _point_from_result(result) -> EvaluatedPoint:
    ok = result.ok
    return EvaluatedPoint(
        label=result.scenario.label,
        cost_per_transistor_usd=(result.cost_per_transistor_usd if ok
                                 else None),
        area_cm2=result.area_cm2 if math.isfinite(result.area_cm2) else None,
        die_cost_usd=result.die_cost_usd if ok else None,
        ok=ok)


class CostService:
    """Evaluate wire requests against the Scenario facade.

    One instance is shared by the server's event loop and its worker
    threads: the memo cache and batcher are the cross-request state.
    ``batch_wait_s`` bounds the extra latency a single evaluation pays
    for coalescing; ``0`` batches only what is already queued.
    Construct with ``batching=False`` to price every request directly
    (the no-coalescing baseline the benchmarks compare against).
    """

    def __init__(self, *, cache_entries: int = 256, batch_max: int = 64,
                 batch_wait_s: float = 0.002, batching: bool = True) -> None:
        self.numpy_backend = _numpy_available()
        self._cache = None
        # GridCache is not internally synchronised; the serve layer
        # shares one between the event loop and the worker threads, so
        # all access goes through this lock.
        self._cache_lock = threading.Lock()
        self._batcher = None
        if self.numpy_backend:
            from ..cost.total import PAPER_FIGURE4_MODEL
            from ..engine.cache import GridCache
            self._cache = GridCache(cache_entries)
            self._key_prefix = hashlib.sha256(
                b"serve.evaluate\x00"
                + repr(PAPER_FIGURE4_MODEL).encode("utf-8") + b"\x00")
            if batching:
                self._batcher = MicroBatcher(self._price_batch,
                                             max_batch=batch_max,
                                             max_wait_s=batch_wait_s)

    def close(self) -> None:
        """Stop the batcher worker thread (idempotent)."""
        if self._batcher is not None:
            self._batcher.close()

    def __enter__(self) -> "CostService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- the /evaluate pipeline -----------------------------------------

    @staticmethod
    def _price_batch(scenarios) -> list:
        """One engine dispatch for a (possibly coalesced) RAISE batch."""
        from ..api import evaluate_many
        results = evaluate_many(scenarios, cache=False)
        return [(r.cost_per_transistor_usd, r.area_cm2, r.backend)
                for r in results]

    def _scenario_key(self, payload) -> bytes:
        """Cache address of one operating point under the service's model.

        The model half of the digest is hashed once, in ``__init__``;
        per request only the six operating-point floats are added, as
        IEEE bytes (so ``-0.0`` and ``0.0`` are different points).
        """
        digest = self._key_prefix.copy()
        digest.update(_OPERATING_POINT.pack(
            payload.n_transistors, payload.feature_um, payload.n_wafers,
            payload.yield_fraction, payload.cost_per_cm2, payload.sd))
        return digest.digest()

    def batched(self, request: EvaluateRequest) -> bool:
        """Whether ``request`` takes the cache → micro-batcher path.

        True for RAISE requests on the NumPy backend with batching on.
        For those, :meth:`lookup`, :meth:`submit` and :meth:`finish`
        make no engine call on the calling thread, so an event loop
        may run them; every other request is a blocking
        :meth:`evaluate` call.
        """
        return request.policy == "raise" and self._batcher is not None

    def lookup(self, request: EvaluateRequest) -> _Pending:
        """Step 1 of a RAISE evaluation: probe the cache for every point."""
        from ..engine import resolved_backend
        payloads = request.scenarios
        keys = [self._scenario_key(p) for p in payloads]
        values: list = [None] * len(payloads)
        misses = []
        with self._cache_lock:
            for i, key in enumerate(keys):
                cached = self._cache.get(key)
                if cached is None:
                    misses.append(i)
                else:
                    values[i] = (float(cached[0]), float(cached[1]))
        return _Pending(payloads, keys, values, misses, resolved_backend())

    def submit(self, pending: _Pending) -> list:
        """Step 2: queue the misses on the micro-batcher.

        Returns one :class:`~concurrent.futures.Future` per missed
        point, in order, each resolving to ``(cost, area, backend)``.
        Needs batching on (see :meth:`batched`).
        """
        return [self._batcher.submit(pending.payloads[i].to_scenario())
                for i in pending.misses]

    def finish(self, pending: _Pending, fresh) -> EvaluateResponse:
        """Step 3: cache the freshly priced points and build the response.

        ``fresh`` holds one ``(cost, area, backend)`` per miss, in order.
        """
        import numpy as np
        values = pending.values
        backend = pending.backend
        for i, (cost, area, fresh_backend) in zip(pending.misses, fresh):
            with self._cache_lock:
                self._cache.put(pending.keys[i],
                                np.asarray([cost, area], dtype=float))
            values[i] = (cost, area)
            backend = fresh_backend
        points = tuple(
            EvaluatedPoint(label=payload.label,
                           cost_per_transistor_usd=cost,
                           area_cm2=area,
                           die_cost_usd=cost * payload.n_transistors,
                           ok=True)
            for payload, (cost, area) in zip(pending.payloads, values))
        return EvaluateResponse(results=points, backend=backend)

    def evaluate(self, request: EvaluateRequest) -> EvaluateResponse:
        """Price the request's scenarios under its error policy.

        RAISE batches flow cache → micro-batcher → ``evaluate_many``
        (:meth:`lookup`, :meth:`submit`, :meth:`finish`); a failing
        scenario raises its :mod:`repro.errors` exception. MASK returns
        NaN-masked points as ``null`` costs plus one diagnostic per
        failure; COLLECT returns the aggregated diagnostics with no
        results when anything failed.
        """
        if not self.numpy_backend:
            return self._evaluate_fallback(request)
        if request.policy != "raise":
            return self._evaluate_guarded(request)
        pending = self.lookup(request)
        if self._batcher is not None:
            fresh = [future.result() for future in self.submit(pending)]
        elif pending.misses:
            fresh = self._price_batch([pending.payloads[i].to_scenario()
                                       for i in pending.misses])
        else:
            fresh = []
        return self.finish(pending, fresh)

    def _evaluate_guarded(self, request: EvaluateRequest) -> EvaluateResponse:
        from ..api import evaluate_many
        from ..robust.policy import ErrorPolicy
        scenarios = [p.to_scenario() for p in request.scenarios]
        diagnostics: list = []
        policy = ErrorPolicy.coerce(request.policy)
        try:
            results = evaluate_many(scenarios, policy=policy,
                                    diagnostics=diagnostics, cache=False)
        except CollectedErrors as exc:
            return EvaluateResponse(results=(), backend="numpy",
                                    diagnostics=_diag_payloads(exc.diagnostics))
        backend = results[0].backend if results else "numpy"
        return EvaluateResponse(
            results=tuple(_point_from_result(r) for r in results),
            backend=backend, diagnostics=_diag_payloads(diagnostics))

    def _evaluate_fallback(self, request: EvaluateRequest) -> EvaluateResponse:
        """Stdlib-only ``/evaluate``: per-point scalar kernels, no cache."""
        points: list = []
        diagnostics: list = []
        for index, payload in enumerate(request.scenarios):
            try:
                cost = pykernels.total_transistor_cost(
                    payload.sd, payload.n_transistors, payload.feature_um,
                    payload.n_wafers, payload.yield_fraction,
                    payload.cost_per_cm2,
                    wafer_area_cm2=_WAFER_200MM_AREA_CM2, a0=EQ6_A0,
                    p1=EQ6_P1, p2=EQ6_P2, sd0=EQ6_SD0)
                area = pykernels.area_from_sd(
                    payload.sd, payload.n_transistors, payload.feature_um)
            except ValueError as exc:
                if request.policy == "raise":
                    raise DomainError(str(exc)) from exc
                diagnostics.append(DiagnosticPayload(
                    where="serve.evaluate", equation="4",
                    parameter="scenario", value=payload.label or None,
                    index=index, error_type="DomainError",
                    message=str(exc)))
                points.append(EvaluatedPoint(
                    label=payload.label, cost_per_transistor_usd=None,
                    area_cm2=None, die_cost_usd=None, ok=False))
                continue
            points.append(EvaluatedPoint(
                label=payload.label, cost_per_transistor_usd=cost,
                area_cm2=area, die_cost_usd=cost * payload.n_transistors,
                ok=True))
        if request.policy == "collect" and diagnostics:
            return EvaluateResponse(results=(), backend="python",
                                    diagnostics=tuple(diagnostics))
        return EvaluateResponse(results=tuple(points), backend="python",
                                diagnostics=tuple(diagnostics))

    # -- grid routes (NumPy-backed facade methods) -----------------------

    def _require_numpy(self, route: str) -> None:
        if not self.numpy_backend:
            raise ExecutionError(
                f"/{route} needs the NumPy evaluation backend, which is "
                "not available on this interpreter")

    def sweep(self, request: SweepRequest) -> SweepResponse:
        """``Scenario.sweep`` over HTTP (one grid job per request)."""
        self._require_numpy("sweep")
        from ..robust.policy import ErrorPolicy
        scenario = request.scenario.to_scenario()
        policy = ErrorPolicy.coerce(request.policy)
        try:
            result = scenario.sweep(parameter=request.parameter,
                                    values=request.values, policy=policy)
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
        from ..robust.policy import ErrorPolicy
        scenario = request.scenario.to_scenario()
        policy = ErrorPolicy.coerce(request.policy)
        diagnostics: list = []
        try:
            front = scenario.pareto(values=request.values, policy=policy,
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
        from ..robust.policy import ErrorPolicy
        scenario = request.scenario.to_scenario()
        policy = ErrorPolicy.coerce(request.policy)
        try:
            elasticities = scenario.sensitivity(
                parameters=request.parameters, rel_step=request.rel_step,
                sd_max=request.sd_max, policy=policy)
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
        scenario = request.scenario.to_scenario()
        retry = DEFAULT_RETRY_BUDGET if request.retry else None
        result = scenario.optimal_sd(sd_max=request.sd_max, tol=request.tol,
                                     max_iter=request.max_iter, retry=retry)
        return OptimalSdResponse(
            sd_opt=result.sd_opt, cost_opt=result.cost_opt,
            iterations=result.iterations,
            bracket=(float(result.bracket[0]), float(result.bracket[1])),
            attempts=result.attempts)

    # -- metrics ---------------------------------------------------------

    def cache_stats(self):
        """The shared memo cache's counters (``None`` without NumPy)."""
        if self._cache is None:
            return None
        with self._cache_lock:
            return self._cache.stats()

    def batcher_stats(self) -> dict | None:
        """The micro-batcher's lifetime counters (``None`` if disabled)."""
        return None if self._batcher is None else self._batcher.stats()

    def bridge_metrics(self, registry=None):
        """Snapshot cache/batcher state into labeled registry metrics.

        Mirrors :func:`repro.obs.bridge_engine_metrics`: lifetime
        counters publish by delta (``serve_cache_lifetime_total{event=
        hit|miss|eviction}``, ``serve_batch_lifetime_total{event=
        batch|request|fallback}``) so repeated bridging never
        double-counts, plus current-state gauges
        (``serve_backend_numpy``, ``serve_cache_entries``,
        ``serve_cache_hit_rate``, ``serve_batch_largest``). Returns the
        registry.
        """
        registry = (registry if registry is not None
                    else obs_metrics.get_registry())
        registry.gauge("serve_backend_numpy").set(
            1.0 if self.numpy_backend else 0.0)
        stats = self.cache_stats()
        if stats is not None:
            for event, lifetime in (("hit", stats.hits),
                                    ("miss", stats.misses),
                                    ("eviction", stats.evictions)):
                counter = registry.counter("serve_cache_lifetime_total",
                                           {"event": event})
                delta = lifetime - counter.value
                if delta > 0:
                    counter.inc(delta)
            registry.gauge("serve_cache_entries").set(stats.entries)
            registry.gauge("serve_cache_hit_rate").set(stats.hit_rate)
        batcher = self.batcher_stats()
        if batcher is not None:
            for event, lifetime in (("batch", batcher["batches"]),
                                    ("request", batcher["items"]),
                                    ("fallback", batcher["fallbacks"])):
                counter = registry.counter("serve_batch_lifetime_total",
                                           {"event": event})
                delta = lifetime - counter.value
                if delta > 0:
                    counter.inc(delta)
            registry.gauge("serve_batch_largest").set(batcher["largest"])
        return registry
