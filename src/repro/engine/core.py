"""Engine core: policy-preserving grid dispatch and scalar mapping.

:func:`evaluate_grid` is the single entry the hot loops call. It takes
a kernel (see :mod:`repro.engine.kernels`), a 1-D grid, and the same
``ErrorPolicy`` the legacy loops took, and returns a
:class:`GridEvaluation` whose values and diagnostics are numerically
and behaviourally identical to the per-point loops it replaces:

* ``RAISE`` — vectorized batch calls over ``_BLOCK``-point slices;
* ``MASK``/``COLLECT`` — a vectorized feasibility split: the provably
  safe subset is batched block by block, a block that raises is halved
  until the points that raise on their own are isolated, and those
  points (with every infeasible or non-finite one) re-run through the
  scalar model call so each failing point produces the exact legacy
  ``Diagnostic`` (same ``where``/``equation``/``parameter``/``index``,
  same message, same ``robust.policy.*`` metric side effects).

Both policies evaluate in-process grids in fixed 64k-point slices
written into one preallocated output (:func:`_blocked_batch`,
:func:`_masked_blocks`). A slice and the temporaries the model
arithmetic allocates for it stay cache-resident, where one whole-grid
call streams every temporary through main memory. An in-place kernel
(``Eq4SdKernel``) allocates none: it writes each slice through one
scratch buffer. Under MASK/COLLECT such a kernel writes each slice
whole first; its contract (a write that returns has written a finite
value for every point) makes the feasibility split and the finite scan
redundant for that slice, so they run only where the write raised.
Grids of ``_THREADS_FROM`` points or more are sliced
across threads (NumPy ufuncs release the GIL), one per CPU the
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

from ..errors import ReproError
from ..obs import metrics as obs_metrics
from ..obs import telemetry as obs_telemetry
from ..obs import trace as obs_trace
from ..robust.policy import DiagnosticLog, ErrorPolicy

__all__ = ["GridEvaluation", "block_threads", "configure_parallel",
           "evaluate_grid", "map_scalar", "parallel_settings"]

#: Points per in-process ``kernel.batch`` call. Not a knob: 64k measured
#: fastest of 8k/16k/32k/64k/128k/256k for eq. (4) over a 1M-point grid.
_BLOCK = 65_536
#: Grid size from which the blocks run on several threads. Not a knob:
#: on a 2-vCPU host ``tools/thread_crossover.py`` had two threads beat one
#: at 4 blocks (262 144 points) in 6 of 7 runs and at every larger size
#: in every run; at 3 blocks the winner changed from run to run.
_THREADS_FROM = 4 * _BLOCK
#: A MASK/COLLECT slice of at most this many points with failures on
#: both sides of its middle re-runs point by point instead of halving
#: (see :func:`_isolate`).
_SCALAR_SLICE = 64

#: The ``backend`` label of the engine's span, counters and run-history
#: records; stored runs and ``perfbench`` select on it.
_BACKEND = "numpy"

_enabled = True

_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


def configure_parallel(*, enabled: bool) -> None:
    """Switch the block threads on or off (test hooks and power users).

    ``enabled=False`` keeps every grid on the calling thread.
    """
    global _enabled
    _enabled = enabled


def parallel_settings() -> dict:
    """The current block-thread configuration (for reports and docs)."""
    return {"enabled": _enabled}


def block_threads() -> int:
    """Threads the block loop may use for one large grid.

    The CPUs this process may run on (its affinity mask where the OS
    reports one, so ``taskset -c 0`` gives 1), else ``os.cpu_count()``;
    one thread when ``configure_parallel(enabled=False)``.
    :func:`_block_threads` applies the size cut-over below which a grid
    stays on the calling thread.
    """
    if not _enabled:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class GridEvaluation:
    """One grid evaluation: values plus how they were produced.

    ``values`` has the grid's shape for single-output kernels and
    ``(n_outputs, n)`` for multi-output ones. ``diagnostics`` is the
    tuple ``DiagnosticLog.finish`` returned (for RAISE it is empty).
    ``workers`` is how many threads evaluated the blocks.
    """

    values: np.ndarray
    diagnostics: tuple
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
    """``(write, in_place)``: ``write(block, out, scratch)`` puts
    ``kernel.batch(block)`` into ``out``.

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
    return write, prepare is not None


def _blocked_batch(kernel, xs: np.ndarray) -> tuple[np.ndarray, int]:
    """``kernel.batch`` over ``xs`` in ``_BLOCK``-point slices, one output.

    Returns ``(values, threads)``. A ``ReproError`` from any block
    propagates.
    """
    if xs.size <= _BLOCK:
        return np.asarray(kernel.batch(xs), dtype=float), 1
    values = _values_buffer(kernel, xs.size, fill=None)
    write, _ = _block_writer(kernel)

    def work(start, stop, scratch):
        write(xs[start:stop], values[..., start:stop], scratch)

    return values, _run_blocks(xs.size, work)


def _write_or_nan(write, block: np.ndarray, out: np.ndarray,
                  scratch: np.ndarray) -> bool:
    """``write(block, out, scratch)``; on a ``ReproError`` fill ``out``
    with NaN instead and return False."""
    try:
        write(block, out, scratch)
    except ReproError:
        out[...] = np.nan
        return False
    return True


def _isolate(write, block: np.ndarray, out: np.ndarray,
             scratch: np.ndarray) -> None:
    """Re-write a slice whose write raised, half by half.

    Each half that raises again is halved in turn, down to single
    points, so one bad point costs two writes per halving and leaves
    only itself NaN for the scalar re-run. A slice of at most
    ``_SCALAR_SLICE`` points whose two halves both raise stays NaN
    whole: when every point fails (an invalid fixed argument), halving
    to single points would cost two batch calls per point on top of the
    re-run's one scalar call.
    """
    if block.size == 1:
        return
    half = block.size // 2
    parts = ((block[:half], out[..., :half], scratch[:half]),
             (block[half:], out[..., half:], scratch[half:]))
    failed = [part for part in parts if not _write_or_nan(write, *part)]
    if len(failed) == 2 and block.size <= _SCALAR_SLICE:
        return
    for part in failed:
        _isolate(write, *part)


def _masked_blocks(kernel, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The in-process MASK/COLLECT batch: ``(values, suspects, threads)``.

    An in-place kernel writes each slice whole first: by its contract
    (see :mod:`repro.engine.kernels`) a write that returns has written
    every point's finite value, so the slice is done. A slice whose
    write raised, and every slice of any other kernel, is split by
    ``kernel.feasible``: a fully feasible slice is written straight
    through, a mixed slice gathers its feasible points and scatters the
    results back, and an infeasible one is skipped; every point left
    out, and every point the batch raises for (:func:`_isolate`), stays
    NaN. ``suspects`` are the ascending indices whose values are not
    finite (every infeasible point among them).
    """
    values = _values_buffer(kernel, xs.size, fill=None)
    write, in_place = _block_writer(kernel)
    found = {}

    def work(start, stop, scratch):
        block = xs[start:stop]
        out = values[..., start:stop]
        if in_place and _write_or_nan(write, block, out, scratch):
            return
        keep = np.asarray(kernel.feasible(block), dtype=bool)
        if keep.all():
            # An in-place slice here has already raised whole.
            if in_place or not _write_or_nan(write, block, out, scratch):
                _isolate(write, block, out, scratch)
        else:
            out[...] = np.nan
            if keep.any():
                kept = block[keep]
                part = _values_buffer(kernel, kept.size, fill=None)
                scratch = scratch[:kept.size]
                if not _write_or_nan(write, kept, part, scratch):
                    _isolate(write, kept, part, scratch)
                out[..., keep] = part
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
                 equation: str, parameter: str, *, values=None, indices=None):
    """The legacy per-point loop, byte-compatible diagnostics included.

    Runs ``kernel.point`` at ``indices`` in the given order (default:
    every point) and writes into ``values`` (default: a NaN buffer);
    a failing point keeps its value and adds its ``Diagnostic``.
    Returns ``(values, diagnostics)``.
    """
    log = DiagnosticLog(policy, where, equation=equation)
    if values is None:
        values = _values_buffer(kernel, xs.size)
    for i in range(xs.size) if indices is None else indices.tolist():
        x = float(xs[i])
        try:
            result = kernel.point(x)
        except Exception as exc:  # noqa: BLE001 — capture() re-raises non-ReproError
            if not log.capture(exc, parameter=parameter, value=x, index=i):
                raise
            continue
        _store(values, i, result)
    return values, log.finish()


def _dispatch(kernel, xs: np.ndarray, policy: ErrorPolicy, where: str,
              equation: str, parameter: str) -> GridEvaluation:
    """The policy dispatch body of :func:`evaluate_grid`."""
    if policy is not ErrorPolicy.RAISE:
        # The feasibility predicate is a speed heuristic, never a
        # correctness gate: the points it rejects, the points the batch
        # raised for and the points it gave non-finite values for (e.g.
        # overflow that the scalar path reports as a ``DomainError``)
        # re-run through the scalar model call in ascending grid order,
        # so the diagnostic stream is identical to the legacy loop's.
        values, suspects, threads = _masked_blocks(kernel, xs)
        values, diagnostics = _scalar_loop(
            kernel, xs, policy, where, equation, parameter, values=values,
            indices=suspects)
        return GridEvaluation(values, diagnostics, workers=threads)
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
    obs_metrics.observe("engine_grid_points", float(xs.size))
    return GridEvaluation(values, (), workers=threads)


def evaluate_grid(kernel, grid, *, policy=ErrorPolicy.RAISE, where: str,
                  equation: str = "", parameter: str = "x") -> GridEvaluation:
    """Evaluate ``kernel`` over ``grid`` under an error policy.

    ``where``/``equation``/``parameter`` feed straight into the
    ``DiagnosticLog``, so rewired call sites keep their historical
    diagnostic identities.

    While observability is enabled the whole dispatch runs inside an
    ``engine.evaluate_grid`` span (block-thread spans parent under it)
    and labeled dispatch counters
    (``engine_dispatch_total{backend=,policy=}``,
    ``engine_points_total{backend=}``) record where the points went.
    """
    policy = ErrorPolicy.coerce(policy)
    xs = np.ascontiguousarray(grid, dtype=float)
    enclosing = obs_trace.current_span()
    with obs_trace.span("engine.evaluate_grid", where=where,
                        backend=_BACKEND, policy=policy.name.lower(),
                        points=int(xs.size)) as sp:
        result = _dispatch(kernel, xs, policy, where, equation, parameter)
        sp.set_attr("workers", result.workers)
        if enclosing is not None:
            # DiagnosticLog annotates the *current* span at capture time,
            # which is now this engine span; mirror the robust.* attrs onto
            # the enclosing span so the legacy sweep-span contract holds.
            for attr, value in sp.attrs.items():
                if attr.startswith("robust."):
                    enclosing.set_attr(attr, value)
        obs_metrics.inc(
            "engine_dispatch_total",
            labels={"backend": _BACKEND, "policy": policy.name.lower()})
        obs_metrics.inc("engine_points_total", float(xs.size),
                        labels={"backend": _BACKEND})
        obs_telemetry.note_evaluation(_BACKEND, int(xs.size))
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
