"""Span reports: the per-name roll-up, hot spans and collapsed stacks.

``summary``, ``format_hot_report`` and ``collapsed_from_spans`` are
pure functions of span dicts and get synthetic-record golden tests;
given no records they read the live tracer, which must give the same
answer as its own JSONL export.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.obs import (
    collapsed_from_spans,
    format_collapsed,
    format_hot_report,
    summary,
)

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


def spin(seconds: float) -> None:
    """Busy-wait so self time is attributable (sleep hides in C calls)."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


# -- collapsed_from_spans ----------------------------------------------

def synthetic_records() -> list[dict]:
    # root(10ms self) -> child(5ms self) -> leaf(2ms self); sibling
    # second root occurrence merges into the same path key.
    return [
        {"type": "span", "id": 1, "parent_id": None, "name": "root",
         "depth": 0, "start": 0.0, "duration": 0.017, "self": 0.010},
        {"type": "span", "id": 2, "parent_id": 1, "name": "child",
         "depth": 1, "start": 0.001, "duration": 0.007, "self": 0.005},
        {"type": "span", "id": 3, "parent_id": 2, "name": "leaf",
         "depth": 2, "start": 0.002, "duration": 0.002, "self": 0.002},
        {"type": "span", "id": 4, "parent_id": None, "name": "root",
         "depth": 0, "start": 0.1, "duration": 0.003, "self": 0.003},
        {"type": "metric", "name": "ignored", "kind": "counter"},
    ]


def test_collapsed_from_spans_builds_paths_and_merges():
    collapsed = collapsed_from_spans(synthetic_records())
    assert collapsed == {
        "root": 13_000,  # 10 ms + the 3 ms second occurrence
        "root;child": 5_000,
        "root;child;leaf": 2_000,
    }


def test_collapsed_from_spans_reads_live_tracer():
    with obs.span("a"):
        with obs.span("b"):
            spin(0.005)
    collapsed = collapsed_from_spans()
    assert any(k == "a;b" for k in collapsed)


def test_format_collapsed_stable_lines():
    text = format_collapsed({"b;c": 2, "a": 1})
    assert text.splitlines() == ["a 1", "b;c 2"]
    assert format_collapsed({}) == "(no samples)"


# -- summary / format_hot_report ----------------------------------------

def table_rows(text: str) -> list[list[str]]:
    """The body cells of a ``format_table`` rendering (title, header and
    rule dropped)."""
    lines = text.splitlines()
    body = lines[lines.index(next(l for l in lines if l.startswith("---"))) + 1:]
    return [[cell.strip() for cell in line.split("|")] for line in body]


def test_summary_rolls_up_per_name_by_total_time():
    rows = summary(synthetic_records())
    assert [r["name"] for r in rows] == ["root", "child", "leaf"]
    root = rows[0]
    assert root["calls"] == 2
    assert root["self_s"] == pytest.approx(0.013)
    assert root["total_s"] == pytest.approx(0.020)
    assert root["mean_s"] == pytest.approx(0.010)


def test_summary_of_the_live_tracer_matches_its_export(tmp_path):
    with obs.span("a"):
        with obs.span("b"):
            spin(0.002)
        with obs.span("b"):
            pass
    obs.export_jsonl(tmp_path / "trace.jsonl")
    assert summary() == summary(obs.read_jsonl(tmp_path / "trace.jsonl"))


def test_hot_report_ranks_by_self_time():
    # Self time and total time rank these differently.
    records = synthetic_records()[:3] + [
        {"type": "span", "id": 5, "parent_id": None, "name": "flat",
         "depth": 0, "start": 0.2, "duration": 0.012, "self": 0.012}]
    text = format_hot_report(records)
    assert text.splitlines()[0] == "hot spans (top 4 by self time)"
    rows = table_rows(text)
    assert [r[0] for r in rows] == ["flat", "root", "child", "leaf"]
    grand = 0.012 + 0.010 + 0.005 + 0.002
    assert float(rows[0][3]) == pytest.approx(100 * 0.012 / grand, abs=1e-3)
    assert sum(float(r[3]) for r in rows) == pytest.approx(100.0, abs=1e-2)
    # root: 1 call, self 10 ms, total 17 ms, mean 17 ms.
    assert rows[1][1:] == ["1", "10.000", f"{100 * 0.010 / grand:.3f}",
                           "17.000", "17.000"]


def test_hot_report_top_truncates_but_shares_all_self_time():
    rows = table_rows(format_hot_report(synthetic_records(), top=1))
    assert len(rows) == 1
    assert rows[0][0] == "root"
    assert float(rows[0][3]) == pytest.approx(100 * 0.013 / 0.020)


def test_format_hot_report_renders_table():
    text = format_hot_report(synthetic_records())
    assert "hot spans" in text
    assert "root" in text and "self_ms" in text
    assert format_hot_report([]) == "(no spans recorded)"


# -- tools/trace_report.py modes ---------------------------------------

def write_trace(tmp_path: Path) -> Path:
    with obs.span("outer"):
        with obs.span("inner"):
            spin(0.005)
    path = tmp_path / "trace.jsonl"
    obs.export_jsonl(path)
    return path


def run_tool(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(REPO / "tools" / "trace_report.py"), *argv],
        capture_output=True, text=True)


def test_trace_report_flame_mode(tmp_path):
    path = write_trace(tmp_path)
    proc = run_tool("--flame", str(path))
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith("outer;inner ")
               for line in proc.stdout.splitlines())


def test_trace_report_hot_mode(tmp_path):
    path = write_trace(tmp_path)
    proc = run_tool("--hot", "1", str(path))
    assert proc.returncode == 0, proc.stderr
    assert "top 1" in proc.stdout
    proc_default = run_tool("--hot", str(path))
    assert proc_default.returncode == 0
    assert "outer" in proc_default.stdout


def test_trace_report_default_mode_prints_the_shared_roll_up(tmp_path):
    path = write_trace(tmp_path)
    proc = run_tool(str(path))
    assert proc.returncode == 0, proc.stderr
    report = proc.stdout.rstrip("\n")
    assert report.startswith("spans: 2 | metrics: ")
    assert report.endswith(
        "roll-up\n" + obs.format_summary_table(obs.read_jsonl(path)))


def test_trace_report_bad_usage_exits_2(tmp_path):
    assert run_tool().returncode == 2
    assert run_tool("--hot", "not-a-number",
                    str(write_trace(tmp_path))).returncode == 2
