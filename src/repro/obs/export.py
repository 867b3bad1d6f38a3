"""Exporters: JSON-lines traces, span reports, metric tables.

Three consumers, three formats:

* **machines** — :func:`export_jsonl` writes one JSON object per span
  / metric / provenance record (``{"type": "span", ...}``), the
  interchange format ``tools/trace_report.py`` re-reads;
* **humans, structure** — :func:`format_span_tree` renders the call
  tree with total/self times, collapsing same-named siblings
  (``cost.total... ×104``) so optimiser inner loops stay readable, and
  :func:`collapsed_from_spans` / :func:`format_collapsed` give the same
  tree as flamegraph collapsed stacks;
* **humans, aggregate** — :func:`summary` rolls spans up per name
  (calls, total, self, mean); :func:`format_summary_table` prints it by
  total time and :func:`format_hot_report` by self time, and
  :func:`format_metrics_table` prints the registry.

Every span report reads span dicts (:func:`span_to_dict`, or a
:func:`read_jsonl` export; non-span records are ignored) and, given
``records=None``, the live global tracer.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from ..report.tables import format_table
from . import metrics as _metrics
from . import provenance as _provenance
from . import trace as _trace

__all__ = [
    "collapsed_from_spans",
    "export_jsonl",
    "format_collapsed",
    "format_hot_report",
    "format_metrics_table",
    "format_span_tree",
    "format_summary_table",
    "read_jsonl",
    "span_to_dict",
    "summary",
]


def span_to_dict(sp: "_trace.Span") -> dict:
    """One span as a JSON-friendly dict (the JSONL line payload)."""
    return {
        "type": "span",
        "id": sp.span_id,
        "parent_id": sp.parent_id,
        "name": sp.name,
        "depth": sp.depth,
        "start": sp.start,
        "duration": sp.duration,
        "self": sp.self_time,
        "attrs": sp.attrs,
    }


def _span_records(records: "list[dict] | None") -> list[dict]:
    """The span dicts of ``records``, or of the live tracer if ``None``."""
    if records is None:
        return [span_to_dict(sp) for sp in _trace.get_tracer().spans]
    return [r for r in records if r.get("type", "span") == "span"]


def export_jsonl(path, tracer: "_trace.Tracer | None" = None,
                 registry: "_metrics.MetricsRegistry | None" = None,
                 ledger: "_provenance.ProvenanceLedger | None" = None) -> int:
    """Write spans, metrics, and provenance to a JSON-lines file.

    Each line is a JSON object tagged ``type`` (``span`` / ``metric``
    / ``provenance``). Defaults to the process-global stores; pass
    explicit objects to export a subset. Returns the line count.
    """
    tracer = tracer if tracer is not None else _trace.get_tracer()
    registry = registry if registry is not None else _metrics.get_registry()
    ledger = ledger if ledger is not None else _provenance.get_ledger()
    lines: list[str] = []
    for sp in tracer.spans:
        lines.append(json.dumps(span_to_dict(sp)))
    for c in registry.counters.values():
        lines.append(json.dumps(
            {"type": "metric", "name": c.name,
             "labels": [list(kv) for kv in c.labels],
             "kind": "counter", "value": c.value, "count": c.value}))
    for g in registry.gauges.values():
        lines.append(json.dumps(
            {"type": "metric", "name": g.name,
             "labels": [list(kv) for kv in g.labels],
             "kind": "gauge", "value": _json_safe(g.value), "count": 1}))
    for h in registry.histograms.values():
        lines.append(json.dumps(
            {"type": "metric", "name": h.name,
             "labels": [list(kv) for kv in h.labels],
             "kind": "histogram", "value": _json_safe(h.mean),
             "count": h.count, "sum": h.total,
             "min": _json_safe(h.min) if math.isfinite(h.min) else None,
             "max": _json_safe(h.max) if math.isfinite(h.max) else None,
             "buckets": {str(i): n for i, n in sorted(h.buckets.items())}}))
    for name, count, p50, p90, p99, mx in registry.sketch_rows():
        s = registry.sketches[name]
        lines.append(json.dumps(
            {"type": "metric", "name": name, "kind": "sketch",
             "count": count, "total": s.total,
             "min": _json_safe(s.min) if math.isfinite(s.min) else None,
             "p50": _json_safe(p50), "p90": _json_safe(p90),
             "p99": _json_safe(p99), "max": _json_safe(mx),
             "buckets": {str(i): n for i, n in sorted(s.buckets.items())}}))
    for rec in ledger.records:
        lines.append(json.dumps({"type": "provenance", **rec.to_dict()}))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def read_jsonl(path) -> list[dict]:
    """Read a JSON-lines export back into a list of dicts."""
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def _json_safe(value: float):
    """NaN → None so the JSONL line stays strict-JSON parseable."""
    return None if isinstance(value, float) and math.isnan(value) else value


def _fmt_seconds(seconds: float) -> str:
    """Human time: seconds, milliseconds, or microseconds as fits."""
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _tree_lines(lines: list[str], siblings: list[dict],
                children_map: dict, depth: int) -> None:
    """Render one sibling group, collapsing repeats of the same name."""
    order: list[str] = []
    groups: dict[str, list[dict]] = {}
    for sp in siblings:
        if sp["name"] not in groups:
            order.append(sp["name"])
            groups[sp["name"]] = []
        groups[sp["name"]].append(sp)
    for name in order:
        members = groups[name]
        total = sum(s["duration"] for s in members)
        self_time = sum(s["self"] for s in members)
        label = f"{name} x{len(members)}" if len(members) > 1 else name
        pad = "  " * depth
        lines.append(f"{pad}{label:<{max(46 - len(pad), 1)}} "
                     f"total {_fmt_seconds(total):>9}  "
                     f"self {_fmt_seconds(self_time):>9}")
        children: list[dict] = []
        for member in members:
            children.extend(children_map.get(member["id"], []))
        children.sort(key=lambda s: s["start"])
        if children:
            _tree_lines(lines, children, children_map, depth + 1)


def format_span_tree(records: list[dict] | None = None) -> str:
    """Indented span tree with total/self times.

    Same-named siblings collapse into one ``name xN`` line with summed
    times.
    """
    spans = _span_records(records)
    if not spans:
        return "(no spans recorded)"
    ids = {s["id"] for s in spans}
    children_map: dict = {}
    roots = []
    for sp in spans:
        parent = sp["parent_id"]
        if parent is None or parent not in ids:
            roots.append(sp)
        else:
            children_map.setdefault(parent, []).append(sp)
    roots.sort(key=lambda s: s["start"])
    lines: list[str] = []
    _tree_lines(lines, roots, children_map, 0)
    return "\n".join(lines)


def summary(records: "list[dict] | None" = None) -> list[dict]:
    """Per-name roll-up of the spans: calls, total, self, and mean time.

    One row dict per span name (``name``, ``calls``, ``total_s``,
    ``self_s``, ``mean_s``, the mean total per call), sorted by total
    time, descending — the profile view.
    """
    agg: dict[str, dict] = {}
    for sp in _span_records(records):
        row = agg.get(sp["name"])
        if row is None:
            row = agg[sp["name"]] = {"name": sp["name"], "calls": 0,
                                     "total_s": 0.0, "self_s": 0.0}
        row["calls"] += 1
        row["total_s"] += sp["duration"]
        row["self_s"] += sp["self"]
    out = sorted(agg.values(), key=lambda r: r["total_s"], reverse=True)
    for row in out:
        row["mean_s"] = row["total_s"] / row["calls"]
    return out


def format_summary_table(records: "list[dict] | None" = None) -> str:
    """The :func:`summary` roll-up as an aligned text table."""
    rows = summary(records)
    if not rows:
        return "(no spans recorded)"
    return format_table(
        ["span", "calls", "total_ms", "self_ms", "mean_ms"],
        [(r["name"], r["calls"], r["total_s"] * 1e3, r["self_s"] * 1e3,
          r["mean_s"] * 1e3) for r in rows],
        float_spec=".3f",
    )


def format_hot_report(records: "list[dict] | None" = None,
                      top: int = 15) -> str:
    """The :func:`summary` rows ranked by self time, as a text table.

    Self time — what a span cost itself, excluding its children — is
    the number that says what to optimise; ``self_%`` is each name's
    share of all self time. Only the ``top`` rows are shown (all when
    ``top <= 0``).
    """
    rows = sorted(summary(records), key=lambda r: r["self_s"], reverse=True)
    if not rows:
        return "(no spans recorded)"
    grand_self = sum(r["self_s"] for r in rows)
    rows = rows[:top] if top > 0 else rows
    return format_table(
        ["span", "calls", "self_ms", "self_%", "total_ms", "mean_ms"],
        [(r["name"], r["calls"], r["self_s"] * 1e3,
          100.0 * r["self_s"] / grand_self if grand_self else 0.0,
          r["total_s"] * 1e3, r["mean_s"] * 1e3) for r in rows],
        float_spec=".3f", title=f"hot spans (top {len(rows)} by self time)")


def collapsed_from_spans(records: "list[dict] | None" = None) -> dict[str, int]:
    """Flamegraph collapsed stacks of the span tree (self time per path).

    Each span adds its *self* time in microseconds to the stack key
    ``root;child;...;span``, summed over same-keyed spans, so the
    output renders directly as a flamegraph of the span hierarchy.
    """
    spans = _span_records(records)
    by_id = {sp["id"]: sp for sp in spans}
    paths: dict[int, str] = {}

    def path_of(sp: dict) -> str:
        cached = paths.get(sp["id"])
        if cached is not None:
            return cached
        parent = by_id.get(sp["parent_id"])
        path = sp["name"] if parent is None else f"{path_of(parent)};{sp['name']}"
        paths[sp["id"]] = path
        return path

    out: dict[str, int] = {}
    for sp in spans:
        micros = int(round(sp["self"] * 1e6))
        if micros <= 0:
            continue
        key = path_of(sp)
        out[key] = out.get(key, 0) + micros
    return out


def format_collapsed(collapsed: dict[str, int]) -> str:
    """Collapsed stacks as ``stack microseconds`` lines (flamegraph input).

    Lines are key-sorted so the output is stable across runs and diffs
    cleanly in CI artifacts.
    """
    if not collapsed:
        return "(no samples)"
    return "\n".join(f"{key} {count}" for key, count in sorted(collapsed.items()))


def format_metrics_table(registry: "_metrics.MetricsRegistry | None" = None) -> str:
    """The metrics registry as aligned text tables.

    Counters/gauges/histograms render as the classic
    name/kind/value/count table; duration sketches follow in their own
    table with p50/p90/p99/max columns (milliseconds).
    """
    registry = registry if registry is not None else _metrics.get_registry()
    rows = registry.rows()
    sketch_rows = registry.sketch_rows()
    if not rows and not sketch_rows:
        return "(no metrics recorded)"
    sections = []
    if rows:
        sections.append(format_table(
            ["metric", "kind", "value", "count"],
            [(name, kind, value, count) for name, kind, value, count in rows],
            float_spec=".6g",
        ))
    if sketch_rows:
        sections.append(format_table(
            ["span duration sketch", "count", "p50_ms", "p90_ms", "p99_ms",
             "max_ms"],
            [(name, count, p50 * 1e3, p90 * 1e3, p99 * 1e3, mx * 1e3)
             for name, count, p50, p90, p99, mx in sketch_rows],
            float_spec=".3f",
        ))
    return "\n\n".join(sections)
