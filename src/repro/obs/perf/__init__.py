"""Performance observability: the streaming duration sketch.

:class:`DurationSketch` is a log-bucket percentile sketch
(p50/p90/p99/max, ~1 % relative error, exactly mergeable) that the
metrics registry keeps per span name. The span reports built on the
recorded spans (roll-up, hot spans, flamegraph stacks) live in
:mod:`repro.obs.export`; see ``docs/observability.md`` § "Performance
observability".
"""

from ... import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "sketch": ("DurationSketch",),
})

__all__ = ["DurationSketch"]
