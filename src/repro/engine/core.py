"""Engine core: policy-preserving grid dispatch and scalar mapping.

:func:`evaluate_grid` is the single entry the hot loops call. It takes
a kernel (see :mod:`repro.engine.kernels`), a 1-D grid, and the same
``ErrorPolicy`` the legacy loops took, and returns a
:class:`GridEvaluation` whose values and diagnostics are numerically
and behaviourally identical to the per-point loops it replaces:

* ``RAISE`` — vectorized batch calls over ``_BLOCK``-point slices and
  the content-addressed memo cache;
* ``MASK``/``COLLECT`` — a vectorized feasibility split: the provably
  safe subset is batched block by block, everything else re-runs
  through the scalar model call so each failing point produces the
  exact legacy ``Diagnostic`` (same ``where``/``equation``/
  ``parameter``/``index``, same message, same ``robust.policy.*``
  metric side effects).

Both policies evaluate in-process grids in fixed 64k-point slices
written into one preallocated output (:func:`_blocked_batch`,
:func:`_masked_blocks`). A slice and the temporaries the model
arithmetic allocates for it stay cache-resident, where one whole-grid
call streams every temporary through main memory. An in-place kernel
(``Eq4SdKernel``) allocates none: it writes each slice through one
scratch buffer. Grids of ``_THREADS_FROM`` points or more are sliced
across threads (NumPy ufuncs release the GIL); the thread count is
:func:`configure_parallel`'s ``max_workers``, else every CPU the
process may run on (:func:`block_threads`). The kernels are
elementwise, so the values are bit-identical to one unblocked
``kernel.batch`` on any number of threads.

:func:`map_scalar` is the engine's loop for inherently scalar sweeps
(optimiser restarts, per-node roadmap scans): it centralises the
``try/except``-``capture`` pattern but hands the *unfinished*
``DiagnosticLog`` back so call sites keep their legacy finishing
semantics (dropping points, NaN placeholders, extending caller-owned
diagnostic lists).
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError, ReproError
from ..obs import history as obs_history
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..robust.policy import DiagnosticLog, ErrorPolicy
from . import backend as _backend
from . import cache as _cache

__all__ = ["GridEvaluation", "block_threads", "configure_parallel",
           "evaluate_grid", "map_scalar", "parallel_settings"]

#: Points per in-process ``kernel.batch`` call. Not a knob: 64k measured
#: fastest of 8k/16k/32k/64k/128k/256k for eq. (4) over a 1M-point grid.
_BLOCK = 65_536
#: Grid size from which the blocks run on several threads. Not a knob:
#: on a 2-vCPU host ``tools/pool_crossover.py`` had two threads beat one
#: at 4 blocks (262 144 points) in 6 of 7 runs and at every larger size
#: in every run; at 3 blocks the winner changed from run to run.
_THREADS_FROM = 4 * _BLOCK

_max_workers: int | None = None
_enabled = True

_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


def configure_parallel(*, max_workers: int | None = None,
                       enabled: bool | None = None) -> None:
    """Tune the block threads (test hooks and power users).

    ``max_workers`` caps the threads one large grid may use (None =
    every available CPU, see :func:`block_threads`);
    ``enabled=False`` keeps every grid on the calling thread.
    """
    global _max_workers, _enabled
    if max_workers is not None:
        if max_workers < 1:
            raise DomainError(f"max_workers must be >= 1; got {max_workers}")
        _max_workers = max_workers
    if enabled is not None:
        _enabled = enabled


def parallel_settings() -> dict:
    """The current block-thread configuration (for reports and docs)."""
    return {"max_workers": _max_workers, "enabled": _enabled}


def block_threads() -> int:
    """Threads the block loop may use for one large grid.

    ``max_workers`` when configured, else the CPUs this process may run
    on (its affinity mask where the OS reports one, so ``taskset -c 0``
    gives 1), else ``os.cpu_count()``; one thread when
    ``configure_parallel(enabled=False)``. :func:`_block_threads`
    applies the size cut-over below which a grid stays on the calling
    thread.
    """
    if not _enabled:
        return 1
    if _max_workers is not None:
        return _max_workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class GridEvaluation:
    """One grid evaluation: values plus how they were produced.

    ``values`` has the grid's shape for single-output kernels and
    ``(n_outputs, n)`` for multi-output ones. ``diagnostics`` is the
    tuple ``DiagnosticLog.finish`` returned (for RAISE it is empty).
    ``chunks`` is always 1; ``perfbench`` still reads it. ``workers``
    is how many threads evaluated the blocks.
    """

    values: np.ndarray
    diagnostics: tuple
    backend: str
    cache_hit: bool = False
    chunks: int = 1
    workers: int = 1


def _values_buffer(kernel, n: int, fill: float | None = np.nan) -> np.ndarray:
    """An output buffer for ``n`` points; ``fill=None`` leaves it unset."""
    outputs = getattr(kernel, "n_outputs", 1)
    shape = (outputs, n) if outputs > 1 else (n,)
    return np.empty(shape) if fill is None else np.full(shape, fill, dtype=float)


def _block_threads(n: int) -> int:
    """Threads for an ``n``-point block loop: 1 below ``_THREADS_FROM``."""
    if n < _THREADS_FROM:
        return 1
    return max(1, min(block_threads(), -(-n // _BLOCK)))


def _thread_pool(helpers: int) -> ThreadPoolExecutor:
    """The shared helper threads, recreated when the count changes."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size != helpers:
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool = ThreadPoolExecutor(helpers, thread_name_prefix="repro-block")
            _pool_size = helpers
        return _pool


def _run_blocks(n: int, work) -> int:
    """Call ``work(start, stop, scratch)`` on every ``_BLOCK`` slice of
    ``range(n)``; return how many threads took part.

    The calling thread drains the slices together with up to
    ``threads - 1`` helpers, each with its own ``_BLOCK``-point scratch
    buffer. Helpers run in a copy of the caller's context, so their
    spans parent under the caller's span and the caller's
    ``np.errstate`` applies. After a slice fails no thread starts
    another, and every helper finishes before the exception propagates
    (the calling thread's first).
    """
    # One iterator shared by every thread: next() on it is atomic under
    # the GIL, so each slice is taken exactly once.
    starts = iter(range(0, n, _BLOCK))
    failed = []

    def drain():
        scratch = np.empty(min(_BLOCK, n))
        try:
            for start in starts:
                if failed:
                    return
                stop = min(start + _BLOCK, n)
                work(start, stop, scratch[:stop - start])
        except BaseException:
            failed.append(True)
            raise

    threads = _block_threads(n)
    if threads == 1:
        drain()
        return 1
    pool = _thread_pool(threads - 1)
    futures = [pool.submit(contextvars.copy_context().run, drain)
               for _ in range(threads - 1)]
    try:
        drain()
    finally:
        for future in futures:
            future.cancel()  # still queued: no slices are left for it
        wait(futures)
    for future in futures:
        if not future.cancelled():
            future.result()
    return threads


def _block_writer(kernel):
    """``write(block, out, scratch)``: ``kernel.batch(block)`` into ``out``.

    An in-place kernel (one that defines ``prepare``) is prepared here,
    on the calling thread, and then writes through ``scratch``.
    """
    prepare = getattr(kernel, "prepare", None)
    if prepare is None:
        def write(block, out, scratch):
            out[...] = kernel.batch(block)
    else:
        prepare()

        def write(block, out, scratch):
            kernel.batch(block, out=out, scratch=scratch)
    return write


def _blocked_batch(kernel, xs: np.ndarray) -> tuple[np.ndarray, int]:
    """``kernel.batch`` over ``xs`` in ``_BLOCK``-point slices, one output.

    Returns ``(values, threads)``. A ``ReproError`` from any block
    propagates.
    """
    if xs.size <= _BLOCK:
        return np.asarray(kernel.batch(xs), dtype=float), 1
    values = _values_buffer(kernel, xs.size, fill=None)
    write = _block_writer(kernel)

    def work(start, stop, scratch):
        write(xs[start:stop], values[..., start:stop], scratch)

    return values, _run_blocks(xs.size, work)


def _masked_blocks(kernel, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The in-process MASK/COLLECT batch: ``(values, suspects, threads)``.

    Each slice is split by ``kernel.feasible``: a fully feasible slice
    is written straight through, a mixed slice gathers its feasible
    points and scatters the results back, and an infeasible one is
    skipped; every point left out stays NaN. ``suspects`` are the
    ascending indices whose values are not finite (every infeasible
    point among them). A ``ReproError`` from any slice propagates.
    """
    values = _values_buffer(kernel, xs.size, fill=None)
    write = _block_writer(kernel)
    found = {}

    def work(start, stop, scratch):
        block = xs[start:stop]
        out = values[..., start:stop]
        keep = np.asarray(kernel.feasible(block), dtype=bool)
        if keep.all():
            write(block, out, scratch)
        else:
            out[...] = np.nan
            if keep.any():
                out[..., keep] = kernel.batch(block[keep])
        finite = np.isfinite(out)
        if out.ndim > 1:
            finite = finite.all(axis=0)
        if not finite.all():
            found[start] = np.flatnonzero(~finite) + start

    threads = _run_blocks(xs.size, work)
    suspects = np.concatenate([found[start] for start in sorted(found)]
                              or [np.empty(0, dtype=np.intp)])
    return values, suspects, threads


def _store(values: np.ndarray, index: int, result) -> None:
    if values.ndim > 1:
        values[:, index] = result
    else:
        values[index] = result


def _scalar_loop(kernel, xs: np.ndarray, policy: ErrorPolicy, where: str,
                 equation: str, parameter: str, *, python: bool):
    """The legacy per-point loop, byte-compatible diagnostics included."""
    log = DiagnosticLog(policy, where, equation=equation)
    point = kernel.point_py if python else kernel.point
    values = _values_buffer(kernel, xs.size)
    for i, x in enumerate(xs):
        try:
            result = point(float(x))
        except Exception as exc:  # noqa: BLE001 — capture() re-raises non-ReproError
            if not log.capture(exc, parameter=parameter, value=float(x), index=i):
                raise
            continue
        _store(values, i, result)
    return values, log.finish()


def _masked_batch(kernel, xs: np.ndarray, policy: ErrorPolicy, where: str,
                  equation: str, parameter: str):
    """Vectorized MASK/COLLECT: batch the safe subset, re-run the rest.

    The feasibility predicate is a speed heuristic, never a correctness
    gate: points it rejects — and points the batch produced non-finite
    values for (e.g. overflow that the scalar path reports as a
    ``DomainError``) — are re-evaluated through the scalar model call in
    ascending grid order, so the diagnostic stream is identical to the
    legacy loop's.

    Feasibility, evaluation and the finiteness check run slice by slice
    (:func:`_masked_blocks`). Returns ``(values, diagnostics, threads)``.
    """
    log = DiagnosticLog(policy, where, equation=equation)
    try:
        values, suspects, threads = _masked_blocks(kernel, xs)
    except ReproError:
        # A fixed parameter (not the swept one) is infeasible, or the
        # predicate was too optimistic: the whole batch is suspect, so
        # fall back to the exact legacy loop for full diagnostics parity.
        scalar_values, scalar_diags = _scalar_loop(
            kernel, xs, policy, where, equation, parameter, python=False)
        return scalar_values, scalar_diags, 1
    for raw_index in suspects:
        i = int(raw_index)
        try:
            result = kernel.point(float(xs[i]))
        except Exception as exc:  # noqa: BLE001 — capture() re-raises non-ReproError
            if not log.capture(exc, parameter=parameter, value=float(xs[i]), index=i):
                raise
            continue
        _store(values, i, result)
    return values, log.finish(), threads


def _dispatch(kernel, xs: np.ndarray, policy: ErrorPolicy, mode: str,
              where: str, equation: str, parameter: str,
              cache: bool) -> GridEvaluation:
    """The policy/backend dispatch body of :func:`evaluate_grid`."""
    if mode == "python":
        values, diagnostics = _scalar_loop(kernel, xs, policy, where,
                                           equation, parameter, python=True)
        return GridEvaluation(values, diagnostics, "python")
    if policy is not ErrorPolicy.RAISE:
        values, diagnostics, threads = _masked_batch(
            kernel, xs, policy, where, equation, parameter)
        return GridEvaluation(values, diagnostics, "numpy", workers=threads)
    use_cache = cache and _cache.grid_cache.enabled and not obs_trace.is_enabled()
    key = b""
    if use_cache:
        key = _cache.grid_cache.key(kernel.token(), xs)
        hit = _cache.grid_cache.get(key)
        if hit is not None:
            return GridEvaluation(hit, (), "numpy", cache_hit=True)
    threads = 1
    try:
        values, threads = _blocked_batch(kernel, xs)
    except ReproError:
        if xs.size <= _BLOCK:
            raise
        # The block's message embeds the block's repr: re-run the
        # whole grid so the caller gets the unblocked exception.
        values = kernel.batch(xs)
    values = np.asarray(values, dtype=float)
    if use_cache:
        _cache.grid_cache.put(key, values)
    obs_metrics.observe("engine_grid_points", float(xs.size))
    return GridEvaluation(values, (), "numpy", workers=threads)


def evaluate_grid(kernel, grid, *, policy=ErrorPolicy.RAISE, where: str,
                  equation: str = "", parameter: str = "x",
                  cache: bool = True) -> GridEvaluation:
    """Evaluate ``kernel`` over ``grid`` under the configured backend.

    ``where``/``equation``/``parameter`` feed straight into the
    ``DiagnosticLog``, so rewired call sites keep their historical
    diagnostic identities. ``cache=False`` opts a call site out of the
    memo cache (the cache is also skipped for MASK/COLLECT and while
    tracing is enabled — see :mod:`repro.engine.cache`).

    While observability is enabled the whole dispatch runs inside an
    ``engine.evaluate_grid`` span (block-thread spans parent under it)
    and labeled dispatch counters
    (``engine_dispatch_total{backend=,policy=}``,
    ``engine_points_total{backend=}``, ``engine_chunks_total{backend=}``)
    record where the points went.
    """
    policy = ErrorPolicy.coerce(policy)
    xs = np.ascontiguousarray(grid, dtype=float)
    mode = _backend.resolved_backend()
    enclosing = obs_trace.current_span()
    with obs_trace.span("engine.evaluate_grid", where=where, backend=mode,
                        policy=policy.name.lower(),
                        points=int(xs.size)) as sp:
        result = _dispatch(kernel, xs, policy, mode, where, equation,
                           parameter, cache)
        sp.set_attr("chunks", result.chunks)
        sp.set_attr("workers", result.workers)
        sp.set_attr("cache_hit", result.cache_hit)
        if enclosing is not None:
            # DiagnosticLog annotates the *current* span at capture time,
            # which is now this engine span; mirror the robust.* attrs onto
            # the enclosing span so the legacy sweep-span contract holds.
            for attr, value in sp.attrs.items():
                if attr.startswith("robust."):
                    enclosing.set_attr(attr, value)
        obs_metrics.inc(
            "engine_dispatch_total",
            labels={"backend": result.backend, "policy": policy.name.lower()})
        obs_metrics.inc("engine_points_total", float(xs.size),
                        labels={"backend": result.backend})
        obs_metrics.inc("engine_chunks_total", float(result.chunks),
                        labels={"backend": result.backend})
        obs_history.note_evaluation(result.backend, int(xs.size),
                                    result.cache_hit)
        return result


def map_scalar(items, fn, *, policy=ErrorPolicy.RAISE, where: str,
               equation: str = "", parameter: str = "",
               parameter_of=None, value_of=None, on_error=None, log=None):
    """Map ``fn`` over ``items`` under an error policy; return ``(results, log)``.

    The engine's loop for work that cannot be batched (each item runs an
    optimiser, or items are heterogeneous records). Per item, a failure
    is routed through ``DiagnosticLog.capture`` with
    ``parameter=parameter_of(item)`` (or the fixed ``parameter``),
    ``value=value_of(item)`` (or ``None``) and the item's index; the
    item then contributes ``on_error(item)`` to the results, or is
    dropped when ``on_error`` is ``None``.

    The returned log is **not finished**: call sites keep their legacy
    ``log.finish()`` line (and its COLLECT raise) so downstream
    behaviour — extended diagnostic lists, NaN placeholders, dropped
    points — is exactly what the hand-written loops did. An existing
    ``log`` may be passed in to accumulate across phases.
    """
    items = list(items)
    if log is None:
        log = DiagnosticLog(ErrorPolicy.coerce(policy), where, equation=equation)
    results = []
    for i, item in enumerate(items):
        try:
            result = fn(item)
        except Exception as exc:  # noqa: BLE001 — capture() re-raises non-ReproError
            name = parameter_of(item) if parameter_of is not None else parameter
            value = value_of(item) if value_of is not None else None
            if not log.capture(exc, parameter=name, value=value, index=i):
                raise
            if on_error is not None:
                results.append(on_error(item))
            continue
        results.append(result)
    obs_metrics.observe("engine_map_scalar_points", float(len(items)))
    return results, log
