"""Engine-side state bridged into the metric registry and run history.

:func:`bridge_engine_metrics` snapshots the engine's out-of-registry
state (the block-thread setting) into registry metrics. The
``/metrics`` endpoint, the snapshot writer and the run-history recorder
call it just before they read the registry.

:func:`note_evaluation` is the engine's run-history sink. It lives here,
not in :mod:`repro.obs.history`, so the engine does not import the
SQLite store: a :class:`~repro.obs.history.RunRecorder` installs itself
with :func:`set_recorder` while it is active.
"""

from __future__ import annotations

from . import metrics as _metrics
from .metrics import MetricsRegistry

__all__ = ["bridge_engine_metrics", "current_recorder", "note_evaluation",
           "set_recorder"]

#: The active run recorder (a ``RunRecorder``), or ``None``.
_recorder = None


def set_recorder(recorder) -> None:
    """Install the recorder :func:`note_evaluation` feeds (``None`` removes it)."""
    global _recorder
    _recorder = recorder


def current_recorder():
    """The recorder :func:`note_evaluation` feeds, or ``None``."""
    return _recorder


def note_evaluation(backend: str, points: int) -> None:
    """Engine history sink: one branch when no recorder is active.

    Called by :func:`repro.engine.evaluate_grid` after every dispatch;
    the disabled path must stay guard-only (asserted by
    ``benchmarks/bench_obs_overhead.py``).
    """
    recorder = _recorder
    if recorder is None:
        return
    recorder.note(backend, points)


def bridge_engine_metrics(
        registry: "MetricsRegistry | None" = None) -> "MetricsRegistry":
    """Snapshot engine-side state into registry metrics.

    Publishes the block-thread setting as the ``engine_parallel_enabled``
    gauge. A no-op when the engine (and hence NumPy) is unavailable, so
    exposition works in stdlib-only deploys. Returns the registry.
    """
    registry = registry if registry is not None else _metrics.get_registry()
    try:
        from ..engine import core  # the first NumPy import
    except ImportError:
        return registry
    parallel = core.parallel_settings()
    registry.gauge(
        "engine_parallel_enabled").set(1.0 if parallel["enabled"] else 0.0)
    return registry
