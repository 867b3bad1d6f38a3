"""Exposition: Prometheus text format, OTLP-style spans, snapshots.

The machine-scrapable half of the observability layer. Two outputs:

* :func:`render_prometheus` — the registry in the Prometheus text
  exposition format (version 0.0.4): counters and gauges as plain
  samples, histograms with cumulative decade ``le`` buckets plus
  ``_sum``/``_count``, and every duration sketch as one ``summary``
  family keyed by a ``span`` label with p50/p90/p99 quantiles.
  :func:`parse_prometheus` is the matching grammar checker used by the
  round-trip tests (and by anyone debugging a scrape);
* :func:`spans_to_otlp` — completed spans as OTLP/JSON
  (``resourceSpans`` → ``scopeSpans`` → ``spans`` with hex ids and
  unix-nano times), importable by any OTLP-compatible viewer.

``GET /metrics`` and ``GET /healthz`` are served by :mod:`repro.serve`,
which renders them with :func:`render_prometheus` and
:func:`health_payload`. :func:`write_snapshot` bundles everything
(``metrics.prom``, ``spans.otlp.json``, ``provenance.json``) into a
directory — what the CLI's ``--telemetry DIR`` flag and the CI
artifact upload call.

Everything here is stdlib-only, so exposition works in deployments
without NumPy (the engine bridge degrades to a no-op there).
"""

from __future__ import annotations

import json
import math
import re
import time
from pathlib import Path

from ..errors import DomainError
from . import metrics as _metrics
from . import provenance as _provenance
from . import telemetry as _telemetry
from . import trace as _trace
from .metrics import HISTOGRAM_BUCKET_BOUNDS, MetricsRegistry

__all__ = [
    "health_payload",
    "parse_prometheus",
    "registry_from_records",
    "render_prometheus",
    "spans_to_otlp",
    "write_snapshot",
]

#: Process start reference for the ``/healthz`` uptime report.
_PROCESS_START = time.monotonic()


def health_payload() -> dict:
    """The ``/healthz`` liveness body: provenance + schema contract.

    One JSON-safe dict, served by :mod:`repro.serve`: the running
    checkout's git sha, the schema versions a client may rely on
    (run-history store, bench reports, the Prometheus text format
    ``/metrics`` speaks), and process uptime in seconds.
    """
    from ..bench.schema import SCHEMA_ID as BENCH_SCHEMA_ID
    from .history import HISTORY_SCHEMA_ID, git_sha
    return {
        "status": "ok",
        "git_sha": git_sha(),
        "schemas": {
            "history": HISTORY_SCHEMA_ID,
            "bench": BENCH_SCHEMA_ID,
            "prometheus_text": "0.0.4",
        },
        "uptime_s": round(time.monotonic() - _PROCESS_START, 3),
    }

#: Valid Prometheus metric-name shape.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: Valid Prometheus label-name shape.
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
#: One sample line: name, optional label block, value (no timestamps).
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$")
#: One label pair inside a label block, with escape handling.
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: The single summary family every duration sketch renders into.
SKETCH_FAMILY = "repro_span_duration_seconds"


def _sanitize_name(name: str) -> str:
    """Coerce an internal metric name into a valid Prometheus name."""
    safe = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not safe or safe[0].isdigit():
        safe = "_" + safe
    return safe


def _escape_label_value(value: str) -> str:
    """Escape a label value per the text-format rules."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float) -> str:
    """Render a sample value (repr-style floats, NaN/Inf spelled out)."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return repr(float(value))


def _label_block(labels, extra=()) -> str:
    """Render a frozen label tuple (plus extras) as ``{k="v",...}``."""
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


def _bound_str(bound: float) -> str:
    """A bucket bound as Prometheus renders it (``0.001``, ``10000.0``)."""
    return repr(bound)


def render_prometheus(registry: "MetricsRegistry | None" = None) -> str:
    """The registry in Prometheus text exposition format (0.0.4).

    Families are emitted name-sorted with one ``# TYPE`` line each;
    labeled series of the same family group under it. Histograms render
    their decade buckets cumulatively with a closing ``+Inf`` bucket;
    sketches render as one ``summary`` family (:data:`SKETCH_FAMILY`)
    with the span name as a ``span`` label.
    """
    registry = registry if registry is not None else _metrics.get_registry()
    lines: list[str] = []

    families: dict[str, list] = {}
    for c in registry.counters.values():
        families.setdefault(c.name, []).append(c)
    for name in sorted(families):
        safe = _sanitize_name(name)
        lines.append(f"# TYPE {safe} counter")
        for c in families[name]:
            lines.append(f"{safe}{_label_block(c.labels)} "
                         f"{_format_value(c.value)}")

    families = {}
    for g in registry.gauges.values():
        families.setdefault(g.name, []).append(g)
    for name in sorted(families):
        safe = _sanitize_name(name)
        lines.append(f"# TYPE {safe} gauge")
        for g in families[name]:
            lines.append(f"{safe}{_label_block(g.labels)} "
                         f"{_format_value(g.value)}")

    families = {}
    for h in registry.histograms.values():
        families.setdefault(h.name, []).append(h)
    for name in sorted(families):
        safe = _sanitize_name(name)
        lines.append(f"# TYPE {safe} histogram")
        for h in families[name]:
            cumulative = 0
            for i, bound in enumerate(HISTOGRAM_BUCKET_BOUNDS):
                cumulative += h.buckets.get(i, 0)
                block = _label_block(h.labels,
                                     extra=[("le", _bound_str(bound))])
                lines.append(f"{safe}_bucket{block} {cumulative}")
            block = _label_block(h.labels, extra=[("le", "+Inf")])
            lines.append(f"{safe}_bucket{block} {h.count}")
            lines.append(f"{safe}_sum{_label_block(h.labels)} "
                         f"{_format_value(h.total)}")
            lines.append(f"{safe}_count{_label_block(h.labels)} {h.count}")

    if registry.sketches:
        lines.append(f"# TYPE {SKETCH_FAMILY} summary")
        for name in sorted(registry.sketches):
            s = registry.sketches[name]
            span_label = ("span", name)
            for q, value in (("0.5", s.p50), ("0.9", s.p90),
                             ("0.99", s.p99)):
                block = _label_block([span_label], extra=[("quantile", q)])
                lines.append(f"{SKETCH_FAMILY}{block} "
                             f"{_format_value(value)}")
            lines.append(f"{SKETCH_FAMILY}_sum{_label_block([span_label])} "
                         f"{_format_value(s.total)}")
            lines.append(f"{SKETCH_FAMILY}_count{_label_block([span_label])} "
                         f"{s.count}")

    return "\n".join(lines) + ("\n" if lines else "")


def _unescape_label_value(value: str) -> str:
    """Invert :func:`_escape_label_value` in one left-to-right pass.

    Sequential ``str.replace`` chains mis-handle adjacent escapes —
    ``\\\\n`` (an escaped backslash followed by a literal ``n``) must
    decode to backslash + ``n``, not to a newline.
    """
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
            if nxt in ('"', "\\"):
                out.append(nxt)
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _parse_label_block(block: str, line: str) -> dict[str, str]:
    """Parse ``{k="v",...}`` strictly; raise ``DomainError`` on junk."""
    inner = block[1:-1]
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(inner):
        m = _LABEL_PAIR_RE.match(inner, pos)
        if m is None:
            raise DomainError(f"malformed label block in line: {line!r}")
        key, value = m.group(1), m.group(2)
        if key in labels:
            raise DomainError(f"duplicate label {key!r} in line: {line!r}")
        labels[key] = _unescape_label_value(value)
        pos = m.end()
        if pos < len(inner):
            if inner[pos] != ",":
                raise DomainError(f"malformed label block in line: {line!r}")
            pos += 1
    return labels


def parse_prometheus(text: str) -> list[dict]:
    """Validate Prometheus text format; return the parsed samples.

    Checks the grammar the way a scraper would: valid metric and label
    names, parseable values (including ``NaN``/``±Inf``), well-formed
    ``# TYPE``/``# HELP`` comments, and that every sample's family has
    at most one ``TYPE`` declaration. Raises :class:`~repro.errors.DomainError`
    (a ``ValueError``) on the first violation; returns a list of ``{"name", "labels", "value"}``
    dicts otherwise.
    """
    samples: list[dict] = []
    typed: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("TYPE", "HELP"):
                if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                    raise DomainError(f"malformed comment line: {line!r}")
                if parts[1] == "TYPE":
                    if len(parts) != 4 or parts[3] not in (
                            "counter", "gauge", "histogram", "summary",
                            "untyped"):
                        raise DomainError(f"malformed TYPE line: {line!r}")
                    if parts[2] in typed:
                        raise DomainError(
                            f"duplicate TYPE for family {parts[2]!r}")
                    typed[parts[2]] = parts[3]
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            raise DomainError(f"malformed sample line: {line!r}")
        name, block, value_str = m.group(1), m.group(2), m.group(3)
        labels = _parse_label_block(block, line) if block else {}
        try:
            value = float(value_str)
        except ValueError:
            raise DomainError(
                f"unparseable sample value {value_str!r} in: {line!r}")
        samples.append({"name": name, "labels": labels, "value": value})
    return samples


def registry_from_records(records: list[dict]) -> MetricsRegistry:
    """Rebuild a registry from JSONL export records (``type == metric``).

    The inverse (as far as the export carries state) of
    :func:`~repro.obs.export.export_jsonl`'s metric lines — what
    ``tools/trace_report.py --prom`` uses to render a saved snapshot.
    Older exports without ``buckets`` reconstruct counts and sums but
    lose bucket/quantile detail. Every series keeps the name it was
    exported under.
    """
    reg = MetricsRegistry()
    for rec in records:
        if rec.get("type") != "metric":
            continue
        kind = rec.get("kind")
        labels = [tuple(kv) for kv in rec.get("labels", [])]
        name = rec["name"]
        if kind == "counter":
            reg.counter(name, labels).inc(rec.get("value") or 0.0)
        elif kind == "gauge":
            if rec.get("value") is not None:
                reg.gauge(name, labels).set(rec["value"])
        elif kind == "histogram":
            h = reg.histogram(name, labels)
            h.count = int(rec.get("count", 0))
            if "sum" in rec:
                h.total = float(rec["sum"])
            elif rec.get("value") is not None:
                h.total = float(rec["value"]) * h.count
            if rec.get("min") is not None:
                h.min = float(rec["min"])
            if rec.get("max") is not None:
                h.max = float(rec["max"])
            h.buckets = {int(i): int(n)
                         for i, n in rec.get("buckets", {}).items()}
        elif kind == "sketch":
            s = reg.sketch(name)
            s.count = int(rec.get("count", 0))
            s.total = float(rec.get("total", 0.0))
            if rec.get("max") is not None:
                s.max = float(rec["max"])
            if rec.get("min") is not None:
                s.min = float(rec["min"])
            s.buckets = {int(i): int(n)
                         for i, n in rec.get("buckets", {}).items()}
    return reg


def _otlp_attr_value(value) -> dict:
    """One attribute value in OTLP/JSON typed-value form."""
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def spans_to_otlp(tracer: "_trace.Tracer | None" = None,
                  trace_id: str | None = None,
                  service_name: str = "repro") -> dict:
    """Completed spans as an OTLP/JSON ``resourceSpans`` document.

    All spans share one 32-hex ``traceId`` (a fresh one unless given);
    span ids render as 16-hex strings of the tracer-local integer ids.
    Monotonic span times are anchored to the wall clock at export time,
    so the unix-nano timestamps are self-consistent within the trace.
    """
    tracer = tracer if tracer is not None else _trace.get_tracer()
    if trace_id is None:
        import uuid
        trace_id = uuid.uuid4().hex
    anchor = time.time() - time.perf_counter()

    def nanos(monotonic: float) -> str:
        return str(int((anchor + monotonic) * 1e9))

    otlp_spans = []
    for sp in tracer.spans:
        record = {
            "traceId": trace_id,
            "spanId": f"{sp.span_id & 0xFFFFFFFFFFFFFFFF:016x}",
            "name": sp.name,
            "kind": 1,
            "startTimeUnixNano": nanos(sp.start),
            "endTimeUnixNano": nanos(sp.end),
            "attributes": [
                {"key": key, "value": _otlp_attr_value(value)}
                for key, value in sp.attrs.items()],
        }
        if sp.parent_id is not None:
            record["parentSpanId"] = (
                f"{sp.parent_id & 0xFFFFFFFFFFFFFFFF:016x}")
        otlp_spans.append(record)
    return {
        "resourceSpans": [{
            "resource": {"attributes": [{
                "key": "service.name",
                "value": {"stringValue": service_name}}]},
            "scopeSpans": [{
                "scope": {"name": "repro.obs"},
                "spans": otlp_spans,
            }],
        }],
    }


def write_snapshot(directory,
                   registry: "MetricsRegistry | None" = None,
                   tracer: "_trace.Tracer | None" = None,
                   ledger=None) -> dict[str, Path]:
    """Dump the full telemetry snapshot bundle into ``directory``.

    Writes ``metrics.prom`` (bridged + rendered registry),
    ``spans.otlp.json``, and ``provenance.json``; creates the directory
    if needed and returns a name → path mapping. This is what the CLI's
    ``--telemetry DIR`` produces and CI uploads as an artifact.
    """
    registry = registry if registry is not None else _metrics.get_registry()
    tracer = tracer if tracer is not None else _trace.get_tracer()
    ledger = ledger if ledger is not None else _provenance.get_ledger()
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    _telemetry.bridge_engine_metrics(registry)

    paths = {
        "metrics": out / "metrics.prom",
        "spans": out / "spans.otlp.json",
        "provenance": out / "provenance.json",
    }
    paths["metrics"].write_text(render_prometheus(registry))
    paths["spans"].write_text(
        json.dumps(spans_to_otlp(tracer), indent=2) + "\n")
    paths["provenance"].write_text(json.dumps(
        {"records": [rec.to_dict() for rec in ledger.records]},
        indent=2) + "\n")
    return paths
