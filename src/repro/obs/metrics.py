"""Process-local metrics: labeled counters, gauges, and histograms.

A deliberately small, dependency-free registry in the Prometheus
spirit: *counters* only go up (evaluations per model, cache hits),
*gauges* hold the latest value (iterations of the last optimiser run),
*histograms* accumulate value distributions (grid sizes, simulated
yields) as count/sum/min/max plus fixed decade buckets — enough for a
text report and a Prometheus exposition without reservoir sampling.

Every metric may carry a **frozen label set** — an immutable, sorted
tuple of ``(key, value)`` pairs fixed at creation
(``engine_cache_events_total{event="hit"}``). The registry keys
metrics by *name plus labels*, so the same family name with different
labels yields distinct series, exactly as a Prometheus scrape would
see them. Label keys must be ``snake_case`` (enforced here and by lint
rule ``OBS003`` for literal call sites).

All ingestion paths (:meth:`Counter.inc`, :meth:`Gauge.set`,
:meth:`Histogram.observe`, and sketch feeding) are **thread-safe**: a
per-metric lock serialises read-modify-write updates, and the registry
serialises get-or-create, so the serve layer can share one registry
across request threads. Registries **merge** associatively
(:meth:`MetricsRegistry.merge`): counters and histograms add, sketches
add bucket counts, gauges take the last non-NaN value, so separately
collected registries fold into one loss-free total.

All module-level helpers (:func:`inc`, :func:`set_gauge`,
:func:`observe`, :func:`observe_duration`) are gated on the global
observability flag from :mod:`repro.obs.trace`, so instrumented hot
paths cost one branch when observability is off. Direct use of
:class:`MetricsRegistry` is not gated — tests and tools can always
build their own.

Span durations get a fourth metric kind: a
:class:`~repro.obs.perf.DurationSketch` per span name. Flat
:class:`Histogram` aggregates cannot answer "what was p99?", so the
registry keeps a streaming log-bucket percentile sketch instead and
this module installs a duration sink on the global tracer that feeds
every completed span into it.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field

from . import trace as _trace
from .perf.sketch import DurationSketch
from ..errors import DomainError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LEGACY_METRIC_RENAMES",
    "MetricsRegistry",
    "canonical_metric_name",
    "freeze_labels",
    "get_registry",
    "inc",
    "metric_key",
    "observe",
    "observe_duration",
    "set_gauge",
]

#: Valid label-key shape (``snake_case``, same as Prometheus label names).
_LABEL_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Dotted legacy metric names (pre-OBS003 grandfathered spellings) →
#: their canonical snake_case/``_total`` replacements. Only the *read*
#: paths consult this — no in-tree call site emits the old names any
#: more — so JSONL exports written by older versions still reconstruct
#: into the current series (see
#: :func:`repro.obs.exposition.registry_from_records`).
LEGACY_METRIC_RENAMES: dict[str, str] = {
    "api.evaluate_many.scenarios": "api_evaluate_many_scenarios",
    "data.table_a1.cache_hits": "data_table_a1_cache_hits_total",
    "data.table_a1.cache_misses": "data_table_a1_cache_misses_total",
    "data.registry.from_csv.quarantined":
        "data_registry_quarantined_rows_total",
    "designflow.simulator.projects": "designflow_simulator_projects_total",
    "engine.grid.points": "engine_grid_points",
    "engine.map_scalar.points": "engine_map_scalar_points",
    "optimize.optimal_sd.iterations": "optimize_optimal_sd_iterations",
    "optimize.sweep.grid_points": "optimize_sweep_grid_points",
    "robust.quarantine.rows": "robust_quarantine_rows_total",
    "robust.retry.note_retry": "robust_retry_attempts_total",
    "yieldmodels.simulation.wafers": "yieldmodels_simulation_wafers_total",
    "yieldmodels.simulation.dice": "yieldmodels_simulation_dice_total",
    "yieldmodels.simulation.yield": "yieldmodels_simulation_yield",
}


def canonical_metric_name(name: str) -> str:
    """Map a legacy dotted metric name to its canonical spelling.

    Unknown names pass through unchanged, so the shim is safe to apply
    to every record on a read path.
    """
    return LEGACY_METRIC_RENAMES.get(name, name)

#: Histogram decade-bucket upper bounds: 1e-9 … 1e9 (values above the
#: last bound land in the implicit +Inf bucket, index ``len(bounds)``).
HISTOGRAM_BUCKET_BOUNDS: tuple[float, ...] = tuple(
    10.0 ** e for e in range(-9, 10))


def freeze_labels(labels) -> tuple[tuple[str, str], ...]:
    """Normalise a label mapping into the frozen, sorted tuple form.

    Accepts a dict, an iterable of ``(key, value)`` pairs, an
    already-frozen tuple, or ``None`` (→ the empty tuple). Values are
    stringified; keys must be ``snake_case`` and unique.
    """
    if not labels:
        return ()
    items = labels.items() if isinstance(labels, dict) else labels
    frozen = tuple(sorted((str(k), str(v)) for k, v in items))
    seen: set[str] = set()
    for key, _ in frozen:
        if not _LABEL_KEY_RE.match(key):
            raise DomainError(
                f"label key {key!r} is not snake_case ([a-z][a-z0-9_]*)")
        if key in seen:
            raise DomainError(f"duplicate label key {key!r}")
        seen.add(key)
    return frozen


def metric_key(name: str, labels=None) -> str:
    """The registry key of a series: ``name`` or ``name{k="v",...}``."""
    frozen = labels if isinstance(labels, tuple) else freeze_labels(labels)
    if not frozen:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in frozen)
    return f"{name}{{{inner}}}"


@dataclass
class Counter:
    """A monotonically increasing count, optionally labeled."""

    name: str
    value: float = 0.0
    labels: tuple[tuple[str, str], ...] = ()
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter (thread-safe)."""
        if amount < 0:
            raise DomainError(f"counter {self.name}: increment must be >= 0, got {amount}")
        with self._lock:
            self.value += amount

    def merge(self, other: "Counter") -> "Counter":
        """Fold ``other``'s count into this counter; returns self."""
        self.inc(other.value)
        return self

    @property
    def key(self) -> str:
        """The full series key including labels."""
        return metric_key(self.name, self.labels)


@dataclass
class Gauge:
    """A value that can move both ways; remembers only the latest."""

    name: str
    value: float = math.nan
    labels: tuple[tuple[str, str], ...] = ()
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def set(self, value: float) -> None:
        """Record the current level (thread-safe)."""
        value = float(value)
        with self._lock:
            self.value = value

    def merge(self, other: "Gauge") -> "Gauge":
        """Adopt ``other``'s value unless it is NaN; returns self.

        "Last non-NaN wins" keeps merge associative: any merge order
        over the same operand sequence yields the same survivor.
        """
        if not math.isnan(other.value):
            self.set(other.value)
        return self

    @property
    def key(self) -> str:
        """The full series key including labels."""
        return metric_key(self.name, self.labels)


@dataclass
class Histogram:
    """Streaming summary of a value distribution.

    Tracks count, sum, min, and max exactly, plus sparse decade
    buckets (``HISTOGRAM_BUCKET_BOUNDS`` upper bounds) that give the
    Prometheus exposition real ``le`` buckets — without storing
    samples.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    labels: tuple[tuple[str, str], ...] = ()
    buckets: dict[int, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    @staticmethod
    def bucket_index(value: float) -> int:
        """Index of the decade bucket ``value`` falls into.

        Buckets are cumulative-ready upper bounds; values above the
        largest bound return ``len(HISTOGRAM_BUCKET_BOUNDS)`` (the
        +Inf bucket).
        """
        for i, bound in enumerate(HISTOGRAM_BUCKET_BOUNDS):
            if value <= bound:
                return i
        return len(HISTOGRAM_BUCKET_BOUNDS)

    def observe(self, value: float) -> None:
        """Fold one sample into the summary (thread-safe)."""
        value = float(value)
        index = self.bucket_index(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s samples into this histogram (exact); returns self."""
        with self._lock:
            self.count += other.count
            self.total += other.total
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
            for index, count in other.buckets.items():
                self.buckets[index] = self.buckets.get(index, 0) + count
        return self

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed samples (NaN when empty)."""
        return self.total / self.count if self.count else math.nan

    @property
    def key(self) -> str:
        """The full series key including labels."""
        return metric_key(self.name, self.labels)


def _none_if_nonfinite(value: float):
    """±inf/NaN → None, so serialized state stays strict-JSON-safe."""
    return value if math.isfinite(value) else None


@dataclass
class MetricsRegistry:
    """Store of counters, gauges, histograms keyed by name *and* labels."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    sketches: dict[str, DurationSketch] = field(default_factory=dict)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)

    def counter(self, name: str, labels=None) -> Counter:
        """Get or create the counter series ``name`` / ``labels``."""
        frozen = freeze_labels(labels)
        key = metric_key(name, frozen)
        c = self.counters.get(key)
        if c is None:
            with self._lock:
                c = self.counters.get(key)
                if c is None:
                    c = self.counters[key] = Counter(name, labels=frozen)
        return c

    def gauge(self, name: str, labels=None) -> Gauge:
        """Get or create the gauge series ``name`` / ``labels``."""
        frozen = freeze_labels(labels)
        key = metric_key(name, frozen)
        g = self.gauges.get(key)
        if g is None:
            with self._lock:
                g = self.gauges.get(key)
                if g is None:
                    g = self.gauges[key] = Gauge(name, labels=frozen)
        return g

    def histogram(self, name: str, labels=None) -> Histogram:
        """Get or create the histogram series ``name`` / ``labels``."""
        frozen = freeze_labels(labels)
        key = metric_key(name, frozen)
        h = self.histograms.get(key)
        if h is None:
            with self._lock:
                h = self.histograms.get(key)
                if h is None:
                    h = self.histograms[key] = Histogram(name, labels=frozen)
        return h

    def sketch(self, name: str) -> DurationSketch:
        """Get or create the duration sketch ``name``."""
        s = self.sketches.get(name)
        if s is None:
            with self._lock:
                s = self.sketches.get(name)
                if s is None:
                    s = self.sketches[name] = DurationSketch(name)
        return s

    def reset(self) -> None:
        """Drop every metric."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.sketches.clear()

    def is_empty(self) -> bool:
        """Whether no metric has been registered yet."""
        return not (self.counters or self.gauges or self.histograms
                    or self.sketches)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold every series of ``other`` into this registry; returns self.

        The merge is **associative**: counters/histograms/sketches add
        exactly, gauges keep the last non-NaN value, so separately
        collected registries combine losslessly in any grouping.
        """
        for key, c in other.counters.items():
            self.counter(c.name, c.labels).merge(c)
        for key, g in other.gauges.items():
            self.gauge(g.name, g.labels).merge(g)
        for key, h in other.histograms.items():
            self.histogram(h.name, h.labels).merge(h)
        for name, s in other.sketches.items():
            self.sketch(name).merge(s)
        return self

    def to_dict(self) -> dict:
        """Serialise the full registry state as a JSON-safe dict.

        The inverse of :meth:`from_dict`; the format the run-history
        store persists registry snapshots in.
        """
        return {
            "counters": [
                {"name": c.name, "labels": [list(kv) for kv in c.labels],
                 "value": c.value}
                for c in self.counters.values()],
            "gauges": [
                {"name": g.name, "labels": [list(kv) for kv in g.labels],
                 "value": _none_if_nonfinite(g.value)}
                for g in self.gauges.values()],
            "histograms": [
                {"name": h.name, "labels": [list(kv) for kv in h.labels],
                 "count": h.count, "total": h.total,
                 "min": _none_if_nonfinite(h.min),
                 "max": _none_if_nonfinite(h.max),
                 "buckets": {str(i): n for i, n in sorted(h.buckets.items())}}
                for h in self.histograms.values()],
            "sketches": [
                {"name": s.name, "count": s.count, "total": s.total,
                 "min": _none_if_nonfinite(s.min),
                 "max": _none_if_nonfinite(s.max),
                 "buckets": {str(i): n for i, n in sorted(s.buckets.items())}}
                for s in self.sketches.values()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        reg = cls()
        for rec in data.get("counters", ()):
            c = reg.counter(rec["name"], [tuple(kv) for kv in rec["labels"]])
            c.inc(rec["value"])
        for rec in data.get("gauges", ()):
            g = reg.gauge(rec["name"], [tuple(kv) for kv in rec["labels"]])
            if rec["value"] is not None:
                g.set(rec["value"])
        for rec in data.get("histograms", ()):
            h = reg.histogram(rec["name"], [tuple(kv) for kv in rec["labels"]])
            h.count = int(rec["count"])
            h.total = float(rec["total"])
            h.min = math.inf if rec["min"] is None else float(rec["min"])
            h.max = -math.inf if rec["max"] is None else float(rec["max"])
            h.buckets = {int(i): int(n) for i, n in rec["buckets"].items()}
        for rec in data.get("sketches", ()):
            s = reg.sketch(rec["name"])
            s.count = int(rec["count"])
            s.total = float(rec["total"])
            s.min = math.inf if rec["min"] is None else float(rec["min"])
            s.max = -math.inf if rec["max"] is None else float(rec["max"])
            s.buckets = {int(i): int(n) for i, n in rec["buckets"].items()}
        return reg

    def rows(self) -> list[tuple[str, str, float, float]]:
        """Flatten to ``(key, kind, value, count)`` rows, name-sorted.

        ``key`` is the full series key (labels rendered inline). For
        counters and gauges ``count`` repeats the sample count implied
        by the kind (counter value / 1); for histograms ``value`` is
        the mean.
        """
        out: list[tuple[str, str, float, float]] = []
        for key, c in self.counters.items():
            out.append((key, "counter", c.value, c.value))
        for key, g in self.gauges.items():
            out.append((key, "gauge", g.value, 1))
        for key, h in self.histograms.items():
            out.append((key, "histogram", h.mean, h.count))
        out.sort(key=lambda r: (r[1], r[0]))
        return out

    def sketch_rows(self) -> list[tuple[str, int, float, float, float, float]]:
        """Duration sketches as ``(name, count, p50, p90, p99, max)`` rows.

        Times in seconds, name-sorted; empty sketches report NaN
        percentiles.
        """
        out: list[tuple[str, int, float, float, float, float]] = []
        for name in sorted(self.sketches):
            s = self.sketches[name]
            pct = s.percentiles()
            out.append((name, s.count, pct["p50"], pct["p90"], pct["p99"],
                        pct["max"]))
        return out


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def inc(name: str, amount: float = 1.0, labels=None) -> None:
    """Increment counter ``name`` iff observability is enabled."""
    if not _trace._ENABLED:
        return
    _REGISTRY.counter(name, labels).inc(amount)


def set_gauge(name: str, value: float, labels=None) -> None:
    """Set gauge ``name`` iff observability is enabled."""
    if not _trace._ENABLED:
        return
    _REGISTRY.gauge(name, labels).set(value)


def observe(name: str, value: float, labels=None) -> None:
    """Observe ``value`` into histogram ``name`` iff observability is enabled."""
    if not _trace._ENABLED:
        return
    _REGISTRY.histogram(name, labels).observe(value)


def observe_duration(name: str, seconds: float) -> None:
    """Fold a duration into percentile sketch ``name`` iff observability is on."""
    if not _trace._ENABLED:
        return
    _REGISTRY.sketch(name).observe(seconds)


def _span_duration_sink(name: str, seconds: float) -> None:
    """Tracer duration sink: sketch every completed span's duration."""
    _REGISTRY.sketch(name).observe(seconds)


# Spans only exist while observability is enabled, so the sink needs no
# flag check of its own; installing it at import keeps trace.py free of
# any metrics import (the dependency runs strictly metrics -> trace).
_trace.get_tracer().duration_sink = _span_duration_sink
