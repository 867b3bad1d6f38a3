#!/usr/bin/env python3
"""Pretty-print a saved JSON-lines trace as an indented span tree.

Reads an export produced by :func:`repro.obs.export_jsonl` (for
example from a diagnostic session or a CI run), prints the span tree
with total/self times — same-named siblings collapsed as ``name xN``
— followed by the per-span-name roll-up, and reports any metric and
provenance record counts found in the file.

Usage:  python tools/trace_report.py <trace.jsonl>
        python tools/trace_report.py --flame <trace.jsonl>
        python tools/trace_report.py --hot [N] <trace.jsonl>
        python tools/trace_report.py --prom <trace.jsonl>
        python tools/trace_report.py --history <runs.sqlite>

``--flame`` emits the span tree in collapsed-stack format
(``outer;inner self_microseconds`` lines) ready for any flamegraph
renderer (e.g. ``flamegraph.pl`` or speedscope). ``--hot`` prints the
top-N spans ranked by self time (default 15). ``--prom`` renders the
export's metric records in Prometheus text exposition format (the
same output a live ``/metrics`` scrape of that run would have given).
``--history`` takes a ``repro-history/1`` SQLite store instead of a
JSONL export and prints the stored run log plus the cross-run trend
table (``python -m repro.obs report`` renders the same data as HTML).
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

# Die quietly when the output is piped into `head` and the pipe closes.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.obs import (  # noqa: E402
    collapsed_from_spans,
    format_collapsed,
    format_hot_report,
    format_span_tree,
    format_summary_table,
    read_jsonl,
    registry_from_records,
    render_prometheus,
)
from repro.report import format_table  # noqa: E402

USAGE = ("usage: python tools/trace_report.py "
         "[--flame | --hot [N] | --prom] <trace.jsonl>\n"
         "       python tools/trace_report.py --history <runs.sqlite>")


def render_history(path: Path) -> str:
    """The run log + trend table of a run-history store."""
    from repro.obs.history import (
        HistoryStore, detect_drift, format_trend_table)
    with HistoryStore(path) as store:
        records = store.latest(20)
        runs_table = format_table(
            ["run", "started", "command", "git", "backend", "wall_s"],
            [(r.run_id, r.started, r.command, r.git_sha, r.backend or "-",
              f"{r.wall_time_s:.3f}") for r in records],
            title=f"runs ({len(store)} total, newest 20)")
        drift = detect_drift(store)
        trend = format_trend_table(store, drift=drift)
        return f"{runs_table}\n\n{trend}\n\n{drift.format()}"


def render(records: list[dict]) -> str:
    """The full text report for one JSONL export."""
    spans = [r for r in records if r.get("type") == "span"]
    metrics = [r for r in records if r.get("type") == "metric"]
    provenance = [r for r in records if r.get("type") == "provenance"]
    sections = [
        f"spans: {len(spans)} | metrics: {len(metrics)} | "
        f"provenance records: {len(provenance)}",
        "",
        format_span_tree(records),
    ]
    if spans:
        sections += ["", "roll-up", format_summary_table(records)]
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    mode = "report"
    top = 15
    if argv and argv[0] == "--flame":
        mode = "flame"
        argv = argv[1:]
    elif argv and argv[0] == "--history":
        mode = "history"
        argv = argv[1:]
    elif argv and argv[0] == "--prom":
        mode = "prom"
        argv = argv[1:]
    elif argv and argv[0] == "--hot":
        mode = "hot"
        argv = argv[1:]
        if len(argv) == 2:
            try:
                top = int(argv[0])
            except ValueError:
                print(USAGE, file=sys.stderr)
                return 2
            argv = argv[1:]
    if len(argv) != 1:
        print(USAGE, file=sys.stderr)
        return 2
    path = Path(argv[0])
    if not path.exists():
        print(f"no such file: {path}", file=sys.stderr)
        return 2
    if mode == "history":
        from repro.errors import ReproError
        try:
            print(render_history(path))
        except ReproError as exc:
            print(f"not a history store: {path} ({exc})", file=sys.stderr)
            return 2
        return 0
    try:
        records = read_jsonl(path)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        print(f"not a JSONL trace export: {path} ({exc})", file=sys.stderr)
        return 2
    if mode == "flame":
        print(format_collapsed(collapsed_from_spans(records)))
    elif mode == "hot":
        print(format_hot_report(records, top=top))
    elif mode == "prom":
        print(render_prometheus(registry_from_records(records)), end="")
    else:
        print(render(records))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
