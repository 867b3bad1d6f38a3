"""Engine-side state bridged into the metric registry.

:func:`bridge_engine_metrics` snapshots the engine's out-of-registry
state (cache lifetime counters, block-thread settings) into labeled
registry metrics. The ``/metrics`` endpoint, the snapshot writer and
the run-history recorder call it just before they read the registry.
"""

from __future__ import annotations

from . import metrics as _metrics
from .metrics import MetricsRegistry

__all__ = ["bridge_engine_metrics"]


def bridge_engine_metrics(
        registry: "MetricsRegistry | None" = None) -> "MetricsRegistry":
    """Snapshot engine-side state into labeled registry metrics.

    Publishes the grid cache's *lifetime* counters (which keep counting
    while gated live metrics are off) as
    ``engine_cache_lifetime_total{event=...}`` — set by delta, so
    repeated bridging never double-counts — plus current-state gauges
    (``engine_cache_entries``, ``engine_cache_max_entries``,
    ``engine_cache_hit_rate``, ``engine_parallel_enabled``). A no-op
    when the engine (and hence NumPy) is unavailable, so exposition
    works in stdlib-only deploys. Returns the registry.
    """
    registry = registry if registry is not None else _metrics.get_registry()
    try:
        from .. import engine
    except ImportError:
        return registry
    stats = engine.cache_stats()
    for event, lifetime in (("hit", stats.hits), ("miss", stats.misses),
                            ("eviction", stats.evictions)):
        counter = registry.counter("engine_cache_lifetime_total",
                                   {"event": event})
        delta = lifetime - counter.value
        if delta > 0:
            counter.inc(delta)
    registry.gauge("engine_cache_entries").set(stats.entries)
    registry.gauge("engine_cache_max_entries").set(stats.max_entries)
    registry.gauge("engine_cache_hit_rate").set(stats.hit_rate)
    parallel = engine.parallel_settings()
    registry.gauge(
        "engine_parallel_enabled").set(1.0 if parallel["enabled"] else 0.0)
    return registry
