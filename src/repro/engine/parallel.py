"""Supervised chunked ``ProcessPoolExecutor`` path, opt-in for large grids.

The pool only pays for itself when splitting a grid across processes
beats pickling the chunks through the executor. For the engine's
kernels it never does at the sizes measured: on a 2-CPU host the
blocked in-process loop of :mod:`repro.engine.core` evaluates eq. (4)
over 1e5, 1e6 and 1e7 points 2-4x faster than a 2-worker pool
(``tools/pool_crossover.py`` prints the table). The default threshold
(``_DEFAULT_THRESHOLD``, 100M points) therefore sits past the measured
range, so every grid runs in-process unless a caller opts in with
``configure(threshold=...)``; the tests do, and exercise the chunked
path with its supervision, checkpoint and chaos features.

The pool is created lazily on first use, sized ``min(4, cpu)`` by
default, and shut down at interpreter exit. Kernels are plain frozen
dataclasses of frozen model dataclasses, so they pickle cheaply.

Chunk execution runs under a :class:`repro.robust.supervision.
ChunkSupervisor`: a worker crash (``BrokenProcessPool``) restarts the
pool and retries only the failed chunks, a chunk that exceeds its
configured deadline is cancelled and re-dispatched, and after
``breaker_threshold`` consecutive faulty cycles the circuit breaker
opens and the run degrades to in-process ``kernel.batch`` (MASK /
COLLECT, with a diagnostic) or raises :class:`repro.errors.
ExecutionError` (RAISE). An opt-in :class:`~repro.robust.supervision.
CheckpointSink` persists completed chunks keyed by a content
fingerprint so an interrupted sweep resumes evaluating only the
missing chunks. Failure telemetry lands on the labeled registry
(``engine_chunk_retries_total{reason=}``,
``engine_pool_restarts_total``, ``engine_degraded_chunks_total``, the
``engine_breaker_state`` gauge) and in :func:`supervision_stats`.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

import numpy as np

from ..errors import DomainError
from ..obs import metrics as _obs_metrics
from ..obs import telemetry as _obs_telemetry
from ..obs import trace as _obs_trace
from ..robust.supervision import (
    DEFAULT_CHUNK_RETRY_POLICY,
    ChunkRetryPolicy,
    ChunkSupervisor,
    CircuitBreaker,
)
from . import cache as _cache

__all__ = [
    "configure",
    "plan_chunks",
    "batch_in_chunks",
    "shutdown",
    "settings",
    "supervision_stats",
    "reset_supervision",
]

#: Grid size at or above which the chunked pool path engages: past the
#: largest measured size (1e7), since the pool won at none of them.
_DEFAULT_THRESHOLD = 100_000_000
#: Minimum points per chunk — below this, IPC overhead dominates.
_MIN_CHUNK = 10_000
#: Seconds shutdown() waits for a wedged worker before terminating it.
_SHUTDOWN_GRACE_S = 5.0

_UNSET = object()

_threshold = _DEFAULT_THRESHOLD
_max_workers: int | None = None
_enabled = True
_pool: ProcessPoolExecutor | None = None
_retry_policy: ChunkRetryPolicy = DEFAULT_CHUNK_RETRY_POLICY
_breaker = CircuitBreaker(DEFAULT_CHUNK_RETRY_POLICY.breaker_threshold)
_checkpoint = None
_chaos = None

#: Lifetime supervision event counters (process-wide, never reset by runs).
_totals = {"retry_crash": 0, "retry_timeout": 0, "retry_corrupt": 0,
           "restarts": 0, "degraded_chunks": 0, "breaker_openings": 0,
           "checkpoint_saved": 0, "checkpoint_loaded": 0}


def configure(*, threshold: int | None = None, max_workers: int | None = None,
              enabled: bool | None = None,
              retry: ChunkRetryPolicy | None = None,
              checkpoint=_UNSET, chaos=_UNSET) -> None:
    """Tune the parallel path (test hooks and power users).

    ``threshold`` — grid size that triggers chunking; ``max_workers`` —
    pool size (None = ``min(4, cpu)``); ``enabled=False`` forces
    single-process evaluation regardless of size *and* shuts down an
    already-started pool. Changing ``max_workers`` recycles the pool.

    ``retry`` installs a :class:`~repro.robust.supervision.
    ChunkRetryPolicy` (deadline, retry budgets, backoff, breaker
    threshold) and re-arms a fresh closed breaker at its threshold.
    ``checkpoint`` installs (or, with ``None``, removes) a
    :class:`~repro.robust.supervision.CheckpointSink` for resumable
    sweeps. ``chaos`` installs (or removes) a
    :class:`~repro.robust.faultinject.ChaosPlan` injected into
    workers — test harness only.
    """
    global _threshold, _max_workers, _enabled, _retry_policy, _breaker
    global _checkpoint, _chaos
    if threshold is not None:
        if threshold < 2:
            raise DomainError(f"threshold must be >= 2; got {threshold}")
        _threshold = threshold
    if max_workers is not None:
        if max_workers < 1:
            raise DomainError(f"max_workers must be >= 1; got {max_workers}")
        if max_workers != _max_workers:
            shutdown()
        _max_workers = max_workers
    if enabled is not None:
        _enabled = enabled
        if not enabled:
            shutdown()
    if retry is not None:
        if not isinstance(retry, ChunkRetryPolicy):
            raise DomainError(
                f"retry must be a ChunkRetryPolicy; got {type(retry).__name__}")
        _retry_policy = retry
        _breaker = CircuitBreaker(retry.breaker_threshold)
        _publish_breaker_state()
    if checkpoint is not _UNSET:
        _checkpoint = checkpoint
    if chaos is not _UNSET:
        _chaos = chaos


def settings() -> dict:
    """The current parallel configuration (for reports and docs)."""
    return {"threshold": _threshold, "max_workers": _max_workers,
            "enabled": _enabled, "pool_started": _pool is not None,
            "retry": _retry_policy, "breaker_state": _breaker.state,
            "checkpoint": _checkpoint is not None,
            "chaos": _chaos is not None}


def supervision_stats() -> dict:
    """Lifetime supervision counters plus the current breaker state.

    Keys: ``retry_crash``/``retry_timeout``/``retry_corrupt`` (chunk
    retries by fault reason), ``restarts`` (pool restarts),
    ``degraded_chunks`` (chunks evaluated in-process after the pool
    lost its credit), ``breaker_openings``, ``checkpoint_saved`` /
    ``checkpoint_loaded`` (chunk writes/reads through the sink), and
    ``breaker_state`` (``"open"``/``"closed"``).
    """
    stats = dict(_totals)
    stats["retries"] = (stats["retry_crash"] + stats["retry_timeout"]
                        + stats["retry_corrupt"])
    stats["breaker_state"] = _breaker.state
    return stats


def reset_supervision() -> None:
    """Close the breaker and zero the lifetime supervision counters.

    Manual recovery hook: an open breaker is sticky by design (no
    half-open probing — deterministic tests), so after fixing whatever
    was killing workers, call this (or install a fresh policy via
    ``configure(retry=...)``) to re-enable pooled execution.
    """
    _breaker.reset()
    for key in _totals:
        _totals[key] = 0
    _publish_breaker_state()


def plan_chunks(n_points: int) -> int:
    """How many chunks a grid of ``n_points`` should be split into.

    Returns 1 (no pool) below the threshold or when disabled; otherwise
    enough chunks to keep every worker busy without dropping below
    ``_MIN_CHUNK`` points per chunk.
    """
    if not _enabled or n_points < _threshold:
        return 1
    workers = _max_workers if _max_workers is not None else min(4, os.cpu_count() or 1)
    by_size = max(1, n_points // _MIN_CHUNK)
    return max(1, min(workers, by_size))


def _get_pool() -> ProcessPoolExecutor:
    global _pool
    if _pool is None:
        workers = _max_workers if _max_workers is not None else min(4, os.cpu_count() or 1)
        _pool = ProcessPoolExecutor(max_workers=workers)
    return _pool


def _stop_pool(pool: ProcessPoolExecutor, grace_s: float) -> None:
    """Best-effort pool teardown that cannot hang on a wedged worker.

    ``ProcessPoolExecutor.shutdown(wait=True)`` joins worker processes,
    so a worker stuck in an injected hang (or a real wedge) would block
    forever. Instead: a non-blocking shutdown, a bounded join, then
    ``terminate()`` for anything still alive.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    # _processes is a CPython implementation detail and is set to None
    # once a broken pool finishes its own teardown — treat both absence
    # and None as "nothing left to reap".
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        process.join(timeout=max(0.0, grace_s) / max(1, len(processes)))
    for process in processes:
        if process.is_alive():
            process.terminate()


def shutdown(grace_s: float = _SHUTDOWN_GRACE_S) -> None:
    """Stop the worker pool (restarted lazily on next use).

    The wait is bounded by ``grace_s`` seconds in total; workers still
    alive after that are terminated, so the atexit hook can never hang
    the interpreter on a wedged worker.
    """
    global _pool
    if _pool is not None:
        _stop_pool(_pool, grace_s)
        _pool = None


def _restart_pool() -> ProcessPoolExecutor:
    """Replace a broken/suspect pool with a fresh one (no grace: the old
    pool's workers are dead or wedged, so terminate immediately)."""
    global _pool
    if _pool is not None:
        _stop_pool(_pool, 0.0)
        _pool = None
    return _get_pool()


def _run_chunk(kernel, chunk: np.ndarray, index: int = 0, attempt: int = 0,
               chaos=None) -> np.ndarray:
    """Worker-side entry: evaluate one grid chunk (module-level → picklable)."""
    mode = chaos.inject(index, attempt) if chaos is not None else None
    values = kernel.batch(chunk)
    if mode == "corrupt":
        values = chaos.corrupt_values(np.asarray(values))
    return values


def _run_chunk_traced(kernel, chunk: np.ndarray, ctx, index: int,
                      attempt: int = 0, chaos=None, backend: str = "numpy"):
    """Worker-side entry for traced runs: evaluate under local telemetry.

    Runs the chunk inside a :class:`~repro.obs.telemetry.WorkerTelemetry`
    scope — a worker-local tracer/registry enabled just for this task —
    and returns ``(values, payload)`` so the parent can merge the worker
    spans and metric deltas into its own trace tree and registry.
    """
    mode = chaos.inject(index, attempt) if chaos is not None else None
    with _obs_telemetry.WorkerTelemetry(ctx) as wt:
        with _obs_trace.span("engine.parallel.chunk", pid=os.getpid(),
                             chunk=index, attempt=attempt,
                             points=int(chunk.size)):
            values = kernel.batch(chunk)
            _obs_metrics.inc("engine_worker_points_total", float(chunk.size),
                             labels={"backend": backend})
    if mode == "corrupt":
        values = chaos.corrupt_values(np.asarray(values))
    return values, wt.payload


def _publish_breaker_state() -> None:
    _obs_metrics.set_gauge("engine_breaker_state",
                           1.0 if _breaker.open else 0.0)


def _observe(event: str, **info) -> None:
    """Supervisor telemetry hook → lifetime totals + labeled metrics."""
    if event == "retry":
        reason = info.get("reason", "crash")
        _totals[f"retry_{reason}"] = _totals.get(f"retry_{reason}", 0) + 1
        _obs_metrics.inc("engine_chunk_retries_total",
                         labels={"reason": reason})
    elif event == "restart":
        _totals["restarts"] += 1
        _obs_metrics.inc("engine_pool_restarts_total")
    elif event == "degraded":
        _totals["degraded_chunks"] += 1
        _obs_metrics.inc("engine_degraded_chunks_total")
    elif event == "breaker_open":
        _totals["breaker_openings"] += 1
    _publish_breaker_state()


def batch_in_chunks(kernel, grid: np.ndarray, n_chunks: int, *,
                    where: str = "engine.parallel",
                    allow_degraded: bool = False):
    """Evaluate ``kernel.batch`` over ``grid`` split into ``n_chunks``.

    Returns ``(values, report)`` where ``values`` is the concatenation
    of all chunk results along the grid axis (the last axis for
    multi-output kernels) and ``report`` is the
    :class:`~repro.robust.supervision.SupervisionReport` for the run —
    or ``None`` when ``n_chunks <= 1`` (no pool engaged).

    Chunk futures run under the configured
    :class:`~repro.robust.supervision.ChunkRetryPolicy`: crashes
    restart the pool and retry only the failed chunks, deadline
    overruns cancel and re-dispatch, and an open circuit breaker
    degrades every unfinished chunk to in-process evaluation
    (``allow_degraded=True``, recording diagnostics on the report) or
    raises :class:`~repro.errors.ExecutionError`
    (``allow_degraded=False``, the RAISE contract). With a
    :class:`~repro.robust.supervision.CheckpointSink` configured,
    completed chunks persist under the grid fingerprint and a rerun of
    the identical evaluation preloads them instead of re-evaluating.

    While observability is enabled, a :class:`~repro.obs.telemetry.
    TraceContext` is injected into every task and each chunk returns a
    telemetry payload alongside its values; the worker spans (tagged
    with pid, chunk index, attempt, and point count) and metric deltas
    merge into the parent trace and registry, so pooled runs are no
    longer a telemetry blind spot.
    """
    if n_chunks <= 1:
        return kernel.batch(grid), None
    from . import backend as _backend
    chunks = np.array_split(grid, n_chunks)
    ctx = _obs_telemetry.capture_context()
    backend_name = _backend.resolved_backend()
    chaos = _chaos
    n_outputs = getattr(kernel, "n_outputs", 1)

    def _submit(index, attempt):
        args = ((_run_chunk_traced, kernel, chunks[index], ctx, index,
                 attempt, chaos, backend_name) if ctx is not None
                else (_run_chunk, kernel, chunks[index], index, attempt,
                      chaos))
        try:
            return _get_pool().submit(*args)
        except BrokenExecutor:
            # The pool broke between the supervisor's restart and this
            # submit (or was already broken on entry): one fresh try.
            _restart_pool()
            return _get_pool().submit(*args)

    def _extract(index, raw):
        if ctx is not None:
            values, payload = raw
            if payload is not None:
                _obs_telemetry.merge_payload(payload)
        else:
            values = raw
        return np.asarray(values, dtype=float)

    def _validate(index, values):
        expected = len(chunks[index])
        if values.shape[-1:] != (expected,):
            return (f"chunk {index} returned {values.shape[-1] if values.ndim else 0} "
                    f"points, expected {expected}")
        if n_outputs > 1 and values.shape[:-1] != (n_outputs,):
            return (f"chunk {index} returned shape {values.shape}, expected "
                    f"({n_outputs}, {expected})")
        return None

    def _local(index):
        return np.asarray(kernel.batch(chunks[index]), dtype=float)

    preloaded = None
    on_result = None
    if _checkpoint is not None:
        sink = _checkpoint
        fingerprint = _cache.grid_fingerprint(kernel.token(), grid, n_chunks)
        before_loaded, before_saved = sink.loaded, sink.saved
        preloaded = {i: v for i, v in sink.load(fingerprint, n_chunks).items()
                     if _validate(i, np.asarray(v, dtype=float)) is None}
        sink.begin(fingerprint, n_chunks=n_chunks, points=int(grid.size))

        def on_result(index, values):
            sink.save(fingerprint, index, values)

    supervisor = ChunkSupervisor(
        policy=_retry_policy, breaker=_breaker, submit=_submit,
        restart=_restart_pool, local_eval=_local, extract=_extract,
        validate=_validate, observer=_observe, where=where)
    try:
        results, report = supervisor.run(
            range(n_chunks), allow_degraded=allow_degraded,
            preloaded=preloaded, on_result=on_result)
    finally:
        _publish_breaker_state()
    if _checkpoint is not None:
        _totals["checkpoint_loaded"] += _checkpoint.loaded - before_loaded
        _totals["checkpoint_saved"] += _checkpoint.saved - before_saved
    parts = [np.asarray(results[i], dtype=float) for i in range(n_chunks)]
    return np.concatenate(parts, axis=-1), report


atexit.register(shutdown)
