"""Hierarchical span tracer with a near-zero-cost disabled path.

The tracer answers "where did the time go, and in what call structure?"
for a model evaluation. A *span* is a named, timed region of code::

    with span("cost.eq4", n_tr=1e7, sd=300):
        ...

Spans nest: the span entered while another is open becomes its child,
tracked through a :mod:`contextvars` context variable so nesting is
correct across generators and threads that copy the context. Timings
use the monotonic :func:`time.perf_counter` clock, so wall-clock
adjustments never corrupt a trace.

Observability is **off by default**. Every instrumentation point first
checks the module-level ``_ENABLED`` flag; when false, :func:`span`
returns a shared no-op context manager and the cost of the
instrumentation is one attribute load and one branch. :func:`enable`
/ :func:`disable` flip the flag globally (it gates tracing, metrics,
and provenance recording alike).
"""

from __future__ import annotations

import contextvars
import itertools
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Stopwatch",
    "Tracer",
    "add_span_hook",
    "current_span",
    "disable",
    "enable",
    "get_tracer",
    "is_enabled",
    "record_span",
    "remove_span_hook",
    "span",
]

#: Global observability switch. Checked (cheaply) on every hot-path hit.
_ENABLED: bool = False

#: The innermost open span of the current execution context.
_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

#: Live span-event subscribers, called ``hook(event, span)`` with
#: ``event`` in {"enter", "exit"}. Only the profiler installs one, so
#: the per-span cost while nobody listens is a truthiness check.
_SPAN_HOOKS: list = []


def add_span_hook(hook) -> None:
    """Subscribe ``hook(event, span)`` to live span enter/exit events.

    Used by :class:`repro.obs.perf.SpanProfiler` to follow the span
    path in real time; hooks run synchronously inside ``__enter__`` /
    ``__exit__``, so keep them fast.
    """
    if hook not in _SPAN_HOOKS:
        _SPAN_HOOKS.append(hook)


def remove_span_hook(hook) -> None:
    """Unsubscribe a hook added via :func:`add_span_hook` (idempotent)."""
    if hook in _SPAN_HOOKS:
        _SPAN_HOOKS.remove(hook)


def enable() -> None:
    """Turn observability on globally (tracing, metrics, provenance)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn observability off globally; instrumentation becomes a no-op."""
    global _ENABLED
    _ENABLED = False


def is_enabled() -> bool:
    """Whether observability is currently on."""
    return _ENABLED


class Stopwatch:
    """A tiny monotonic-clock timer (used by the benchmark harness).

    Examples
    --------
    ``elapsed()`` keeps counting until :meth:`stop` freezes it::

        sw = Stopwatch().start()
        ...work...
        seconds = sw.stop()
    """

    __slots__ = ("_start", "_elapsed")

    def __init__(self) -> None:
        self._start: float | None = None
        self._elapsed: float = 0.0

    def start(self) -> "Stopwatch":
        """Start (or restart) the clock; returns ``self`` for chaining."""
        self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        """Freeze the clock and return the elapsed seconds."""
        if self._start is not None:
            self._elapsed = time.perf_counter() - self._start
            self._start = None
        return self._elapsed

    def elapsed(self) -> float:
        """Elapsed seconds so far (running or frozen)."""
        if self._start is not None:
            return time.perf_counter() - self._start
        return self._elapsed


class Span:
    """One named, timed region of a trace.

    Use via :func:`span`; spans are context managers and record
    themselves on the global tracer when they exit.
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "depth",
                 "start", "end", "child_time", "_token")

    def __init__(self, name: str, attrs: dict, span_id: int,
                 parent_id: int | None, depth: int):
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start = 0.0
        self.end = 0.0
        self.child_time = 0.0
        self._token: contextvars.Token | None = None

    @property
    def duration(self) -> float:
        """Total wall time inside the span (seconds)."""
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Time spent in the span excluding its child spans (seconds)."""
        return max(0.0, self.duration - self.child_time)

    def set_attr(self, key: str, value) -> None:
        """Attach one attribute to the span after entry."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        """Open the span and make it the current context span."""
        self._token = _CURRENT.set(self)
        if _SPAN_HOOKS:
            for hook in _SPAN_HOOKS:
                hook("enter", self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the span, roll its time up to the parent, record it."""
        self.end = time.perf_counter()
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        parent = _CURRENT.get()
        if parent is not None:
            parent.child_time += self.duration
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if _SPAN_HOOKS:
            for hook in _SPAN_HOOKS:
                hook("exit", self)
        _TRACER.record(self)

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"duration={self.duration * 1e3:.3f}ms)")


class _NullSpan:
    """Shared do-nothing span returned while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        """No-op entry."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """No-op exit."""

    def set_attr(self, key: str, value) -> None:
        """Ignore the attribute."""


_NULL_SPAN = _NullSpan()


@dataclass
class Tracer:
    """Process-local store of completed spans.

    Spans are appended in completion order (children before parents,
    like a flame-graph recorder). ``max_spans`` bounds memory on
    runaway loops; spans past the cap are counted in ``dropped`` and
    discarded.
    """

    max_spans: int = 100_000
    spans: list[Span] = field(default_factory=list)
    dropped: int = 0
    #: Span ids. ``next()`` on a count is atomic under the GIL, so
    #: threads that share the tracer never draw the same id.
    _ids: "itertools.count" = field(default_factory=lambda: itertools.count(1),
                                    repr=False)
    #: Optional ``sink(name, seconds)`` fed every completed span's
    #: duration — the metrics registry installs its percentile-sketch
    #: recorder here (even dropped spans are sketched: the sketch is
    #: fixed-size, so it can afford what the span list cannot).
    duration_sink: "object | None" = None

    def next_id(self) -> int:
        """Allocate a fresh span id."""
        return next(self._ids)

    def record(self, sp: Span) -> None:
        """Store one completed span (or drop it past the cap)."""
        if self.duration_sink is not None:
            self.duration_sink(sp.name, sp.duration)
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(sp)

    def reset(self) -> None:
        """Forget every recorded span."""
        self.spans.clear()
        self.dropped = 0
        self._ids = itertools.count(1)

    def __len__(self) -> int:
        return len(self.spans)

    def roots(self) -> list[Span]:
        """Completed spans with no parent, in start order."""
        out = [s for s in self.spans if s.parent_id is None]
        out.sort(key=lambda s: s.start)
        return out

    def children_of(self, span_id: int) -> list[Span]:
        """Direct children of a span, in start order."""
        out = [s for s in self.spans if s.parent_id == span_id]
        out.sort(key=lambda s: s.start)
        return out


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer holding all completed spans."""
    return _TRACER


def current_span() -> Span | None:
    """The innermost open span of this context, or ``None``."""
    return _CURRENT.get()


def span(name: str, **attrs) -> "Span | _NullSpan":
    """Open a named child span of the current context span.

    Returns a context manager. While observability is disabled this
    returns a shared no-op object, so instrumented code pays only the
    flag check.

    Parameters
    ----------
    name:
        Dotted span name; the first segment names the subsystem
        (``"cost.total.transistor_cost"``).
    attrs:
        Arbitrary JSON-friendly attributes recorded on the span.
    """
    if not _ENABLED:
        return _NULL_SPAN
    parent = _CURRENT.get()
    return Span(
        name,
        dict(attrs),
        span_id=_TRACER.next_id(),
        parent_id=None if parent is None else parent.span_id,
        depth=0 if parent is None else parent.depth + 1,
    )


def record_span(name: str, start: float, end: float, **attrs) -> None:
    """Record a root span that the caller timed with ``perf_counter``.

    For a region that crosses an ``await`` on an event loop, where the
    context variable behind :func:`span` does not follow the work. The
    span is never current, so it has no children, and the live span
    hooks never see it. A no-op while observability is disabled.
    """
    if not _ENABLED:
        return
    sp = Span(name, attrs, span_id=_TRACER.next_id(), parent_id=None,
              depth=0)
    sp.start = start
    sp.end = end
    _TRACER.record(sp)
