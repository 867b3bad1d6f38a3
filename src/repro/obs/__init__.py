"""Observability: tracing, metrics, and provenance for model evaluations.

Every public model evaluation in this library can report *what it did*
(hierarchical timed spans), *how often and how large* (counters,
gauges, histograms), and *where each number came from* (provenance:
paper equation, parameters, dataset rows). All three share one global
switch — :func:`enable` / :func:`disable` — and cost a single branch
per instrumented call while disabled, so production hot paths are
unaffected by default.

Typical diagnostic session::

    from repro import obs

    with obs.enabled():
        result = sd_sweep(PAPER_FIGURE4_MODEL, 1e7, 0.18, 5e3, 0.4, 8.0)
        print(obs.format_span_tree())
        print(obs.format_metrics_table())
        print(obs.provenance_of(result))

The CLI exposes the same data: ``python -m repro report --trace
--metrics --profile``. See ``docs/observability.md`` for the full
guide.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "export": (
        "export_jsonl", "format_metrics_table", "format_span_tree",
        "format_summary_table", "read_jsonl", "span_to_dict", "summary",
    ),
    "exposition": (
        "MetricsEndpoint", "health_payload", "parse_prometheus",
        "registry_from_records", "render_prometheus", "spans_to_otlp",
        "start_metrics_endpoint", "write_snapshot",
    ),
    "instrument": ("enabled", "span_name_for", "traced"),
    "metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "freeze_labels",
        "get_registry", "inc", "metric_key", "observe", "observe_duration",
        "set_gauge",
    ),
    "telemetry": ("bridge_engine_metrics", "note_evaluation"),
    "perf": (
        "DurationSketch", "SpanProfiler", "collapsed_from_spans",
        "format_collapsed", "format_hot_report", "hot_spans",
    ),
    "provenance": (
        "Provenance", "ProvenanceLedger", "attach", "get_ledger",
        "provenance_of", "record_provenance", "summarize_value",
    ),
    "trace": (
        "Span", "Stopwatch", "Tracer", "add_span_hook", "current_span",
        "disable", "enable", "get_tracer", "is_enabled", "remove_span_hook",
        "span",
    ),
    "history": (
        "HISTORY_SCHEMA_ID", "DriftReport", "DriftVerdict", "HistoryStore",
        "RunRecord", "RunRecorder", "SeriesPoint", "detect_drift",
        "format_trend_table", "recording", "render_html_dashboard",
    ),
})

__all__ = [
    # trace
    "Span",
    "Stopwatch",
    "Tracer",
    "add_span_hook",
    "current_span",
    "disable",
    "enable",
    "get_tracer",
    "is_enabled",
    "remove_span_hook",
    "span",
    # instrument
    "enabled",
    "span_name_for",
    "traced",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "freeze_labels",
    "get_registry",
    "inc",
    "metric_key",
    "observe",
    "observe_duration",
    "set_gauge",
    # telemetry
    "bridge_engine_metrics",
    "note_evaluation",
    # exposition
    "MetricsEndpoint",
    "health_payload",
    "parse_prometheus",
    "registry_from_records",
    "render_prometheus",
    "spans_to_otlp",
    "start_metrics_endpoint",
    "write_snapshot",
    # perf
    "DurationSketch",
    "SpanProfiler",
    "collapsed_from_spans",
    "format_collapsed",
    "format_hot_report",
    "hot_spans",
    # provenance
    "Provenance",
    "ProvenanceLedger",
    "attach",
    "get_ledger",
    "provenance_of",
    "record_provenance",
    "summarize_value",
    # history
    "HISTORY_SCHEMA_ID",
    "DriftReport",
    "DriftVerdict",
    "HistoryStore",
    "RunRecord",
    "RunRecorder",
    "SeriesPoint",
    "detect_drift",
    "format_trend_table",
    "recording",
    "render_html_dashboard",
    # export
    "export_jsonl",
    "format_metrics_table",
    "format_span_tree",
    "format_summary_table",
    "read_jsonl",
    "span_to_dict",
    "summary",
    # module-level
    "reset",
]


def reset() -> None:
    """Clear all recorded observability state (spans, metrics, ledger)."""
    from .metrics import get_registry
    from .provenance import get_ledger
    from .trace import get_tracer
    get_tracer().reset()
    get_registry().reset()
    get_ledger().reset()
