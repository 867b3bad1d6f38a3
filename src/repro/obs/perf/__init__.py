"""Performance observability: percentile sketches, profiling, hot spans.

The performance layer on top of :mod:`repro.obs`:

* :class:`DurationSketch` — streaming log-bucket percentile sketch
  (p50/p90/p99/max, ~1 % relative error, exactly mergeable) that the
  metrics registry keeps per span name;
* :class:`SpanProfiler` — deterministic ``sys.setprofile`` profiler
  that attributes wall time to ``span-path;function-stack`` leaves and
  exports flamegraph collapsed-stack format;
* :func:`collapsed_from_spans` / :func:`format_collapsed` — flamegraph
  lines rebuilt from a recorded span tree (what ``tools/trace_report.py
  --flame`` prints);
* :func:`hot_spans` / :func:`format_hot_report` — the per-span-name
  self-time ranking (``--hot``).

The benchmark runner (``python -m repro.bench``) builds its statistics
on these primitives; see ``docs/observability.md`` § "Performance
observability".
"""

from ... import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "profiler": ("SpanProfiler", "collapsed_from_spans", "format_collapsed"),
    "report": ("format_hot_report", "hot_spans"),
    "sketch": ("DurationSketch",),
})

__all__ = [
    "DurationSketch",
    "SpanProfiler",
    "collapsed_from_spans",
    "format_collapsed",
    "format_hot_report",
    "hot_spans",
]
