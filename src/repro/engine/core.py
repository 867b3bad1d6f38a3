"""Engine core: policy-preserving grid dispatch and scalar mapping.

:func:`evaluate_grid` is the single entry the hot loops call. It takes
a kernel (see :mod:`repro.engine.kernels`), a 1-D grid, and the same
``ErrorPolicy`` the legacy loops took, and returns a
:class:`GridEvaluation` whose values and diagnostics are numerically
and behaviourally identical to the per-point loops it replaces:

* ``RAISE`` — vectorized batch calls over ``_BLOCK``-point slices,
  content-addressed memo cache, and the chunked process-pool path when
  a caller lowers its threshold;
* ``MASK``/``COLLECT`` — a vectorized feasibility split: the provably
  safe subset is batched block by block, everything else re-runs
  through the scalar model call so each failing point produces the
  exact legacy ``Diagnostic`` (same ``where``/``equation``/
  ``parameter``/``index``, same message, same ``robust.policy.*``
  metric side effects).

Both policies evaluate in-process grids through :func:`_blocked_batch`:
``kernel.batch`` over fixed 64k-point slices written into one
preallocated output. A slice and the temporaries the model arithmetic
allocates for it stay cache-resident, where one whole-grid call streams
every temporary through main memory. The kernels are elementwise, so
the values are bit-identical to one unblocked ``kernel.batch``.

:func:`map_scalar` is the engine's loop for inherently scalar sweeps
(optimiser restarts, per-node roadmap scans): it centralises the
``try/except``-``capture`` pattern but hands the *unfinished*
``DiagnosticLog`` back so call sites keep their legacy finishing
semantics (dropping points, NaN placeholders, extending caller-owned
diagnostic lists).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..obs import history as obs_history
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..robust.policy import DiagnosticLog, ErrorPolicy
from . import backend as _backend
from . import cache as _cache
from . import parallel as _parallel

__all__ = ["GridEvaluation", "evaluate_grid", "map_scalar"]

#: Points per in-process ``kernel.batch`` call. Not a knob: 64k measured
#: fastest of 8k/16k/32k/64k/128k/256k for eq. (4) over a 1M-point grid.
_BLOCK = 65_536


@dataclass(frozen=True)
class GridEvaluation:
    """One grid evaluation: values plus how they were produced.

    ``values`` has the grid's shape for single-output kernels and
    ``(n_outputs, n)`` for multi-output ones. ``diagnostics`` is the
    tuple ``DiagnosticLog.finish`` returned (for RAISE it is empty).
    ``supervision`` is the :class:`repro.robust.supervision.
    SupervisionReport` of the pooled run (``None`` when the run stayed
    single-process) — retries, pool restarts, degraded chunks,
    checkpoint preloads, breaker state.
    """

    values: np.ndarray
    diagnostics: tuple
    backend: str
    cache_hit: bool = False
    chunks: int = 1
    supervision: object | None = None


def _values_buffer(kernel, n: int, fill: float | None = np.nan) -> np.ndarray:
    """An output buffer for ``n`` points; ``fill=None`` leaves it unset."""
    outputs = getattr(kernel, "n_outputs", 1)
    shape = (outputs, n) if outputs > 1 else (n,)
    return np.empty(shape) if fill is None else np.full(shape, fill, dtype=float)


def _blocked_batch(kernel, xs: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """``kernel.batch`` over ``xs`` in ``_BLOCK``-point slices, one output.

    Without ``mask`` every point is evaluated. With a boolean ``mask``
    only its points are: a fully feasible block writes straight
    through, a mixed block gathers its feasible points and scatters the
    results back, an infeasible block is skipped, and every point left
    out stays NaN. A ``ReproError`` from any block propagates.
    """
    if mask is None and xs.size <= _BLOCK:
        return np.asarray(kernel.batch(xs), dtype=float)
    values = _values_buffer(kernel, xs.size, fill=None)
    for start in range(0, xs.size, _BLOCK):
        block = xs[start:start + _BLOCK]
        out = values[..., start:start + _BLOCK]
        keep = None if mask is None else mask[start:start + _BLOCK]
        if keep is None or keep.all():
            out[...] = kernel.batch(block)
            continue
        out[...] = np.nan
        if keep.any():
            out[..., keep] = kernel.batch(block[keep])
    return values


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

    In-process, the feasible points are evaluated block by block
    (:func:`_blocked_batch`). Feasible subsets past the pool threshold
    go through the supervised pool with
    ``allow_degraded=True``: a run that trips the circuit breaker
    still completes in-process, and its degradation diagnostics are
    appended *after* the log's own — never fed through ``capture`` —
    so a COLLECT run degrades instead of raising ``CollectedErrors``
    for an execution-substrate fault. Returns ``(values, diagnostics,
    supervision, chunks)``.
    """
    log = DiagnosticLog(policy, where, equation=equation)
    mask = np.asarray(kernel.feasible(xs), dtype=bool)
    supervision = None
    n_chunks = _parallel.plan_chunks(int(np.count_nonzero(mask)))
    try:
        if n_chunks > 1:
            batch_values, supervision = _parallel.batch_in_chunks(
                kernel, xs[mask], n_chunks, where=where, allow_degraded=True)
            values = _values_buffer(kernel, xs.size)
            values[..., mask] = np.asarray(batch_values, dtype=float)
        else:
            values = _blocked_batch(kernel, xs, mask)
    except ReproError:
        # A fixed parameter (not the swept one) is infeasible, or the
        # predicate was too optimistic: the whole batch is suspect, so
        # fall back to the exact legacy loop for full diagnostics parity.
        scalar_values, scalar_diags = _scalar_loop(
            kernel, xs, policy, where, equation, parameter, python=False)
        return scalar_values, scalar_diags, None, 1
    finite = np.isfinite(values).all(axis=0) if values.ndim > 1 else np.isfinite(values)
    suspects = np.flatnonzero(~(mask & finite))
    for raw_index in suspects:
        i = int(raw_index)
        try:
            result = kernel.point(float(xs[i]))
        except Exception as exc:  # noqa: BLE001 — capture() re-raises non-ReproError
            if not log.capture(exc, parameter=parameter, value=float(xs[i]), index=i):
                raise
            continue
        _store(values, i, result)
    diagnostics = log.finish()
    if supervision is not None and supervision.diagnostics:
        diagnostics = diagnostics + supervision.diagnostics
    return values, diagnostics, supervision, n_chunks


def _dispatch(kernel, xs: np.ndarray, policy: ErrorPolicy, mode: str,
              where: str, equation: str, parameter: str,
              cache: bool) -> GridEvaluation:
    """The policy/backend dispatch body of :func:`evaluate_grid`."""
    if mode == "python":
        values, diagnostics = _scalar_loop(kernel, xs, policy, where,
                                           equation, parameter, python=True)
        return GridEvaluation(values, diagnostics, "python")
    if policy is not ErrorPolicy.RAISE:
        values, diagnostics, supervision, n_chunks = _masked_batch(
            kernel, xs, policy, where, equation, parameter)
        return GridEvaluation(values, diagnostics, "numpy",
                              chunks=n_chunks, supervision=supervision)
    use_cache = cache and _cache.grid_cache.enabled and not obs_trace.is_enabled()
    key = b""
    if use_cache:
        key = _cache.grid_cache.key(kernel.token(), xs)
        hit = _cache.grid_cache.get(key)
        if hit is not None:
            return GridEvaluation(hit, (), "numpy", cache_hit=True)
    n_chunks = _parallel.plan_chunks(xs.size)
    supervision = None
    if n_chunks > 1:
        values, supervision = _parallel.batch_in_chunks(kernel, xs, n_chunks,
                                                        where=where)
    else:
        try:
            values = _blocked_batch(kernel, xs)
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
    return GridEvaluation(values, (), "numpy", chunks=n_chunks,
                          supervision=supervision)


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
    ``engine.evaluate_grid`` span (the span pooled worker telemetry is
    parented under) and labeled dispatch counters
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
        sp.set_attr("cache_hit", result.cache_hit)
        report = result.supervision
        if report is not None and report.faulted:
            sp.set_attr("supervision.retries", report.n_retries)
            sp.set_attr("supervision.restarts", report.restarts)
            sp.set_attr("supervision.degraded_chunks", len(report.degraded))
            sp.set_attr("supervision.breaker",
                        "open" if report.breaker_open else "closed")
        if report is not None and report.preloaded:
            sp.set_attr("supervision.checkpoint_chunks", len(report.preloaded))
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
