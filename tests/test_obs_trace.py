"""Span tracer tests: nesting, disabled no-op, export round-trip, CLI."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.cost import PAPER_FIGURE4_MODEL

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate each test from global observability state."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSpanNesting:
    def test_parent_child_links_and_depth(self):
        with obs.enabled():
            with obs.span("parent") as parent:
                with obs.span("child") as child:
                    with obs.span("grandchild") as grandchild:
                        pass
        assert child.parent_id == parent.span_id
        assert grandchild.parent_id == child.span_id
        assert (parent.depth, child.depth, grandchild.depth) == (0, 1, 2)

    def test_siblings_share_parent(self):
        with obs.enabled():
            with obs.span("parent") as parent:
                with obs.span("a") as a:
                    pass
                with obs.span("b") as b:
                    pass
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id

    def test_self_time_excludes_children(self):
        with obs.enabled():
            with obs.span("parent") as parent:
                with obs.span("child") as child:
                    pass
        assert parent.duration >= child.duration
        assert parent.self_time == pytest.approx(
            parent.duration - child.duration, abs=1e-9)

    def test_current_span_tracks_stack(self):
        with obs.enabled():
            assert obs.current_span() is None
            with obs.span("outer") as outer:
                assert obs.current_span() is outer
                with obs.span("inner") as inner:
                    assert obs.current_span() is inner
                assert obs.current_span() is outer
            assert obs.current_span() is None

    def test_attrs_recorded(self):
        with obs.enabled():
            with obs.span("x", sd=300, model="eq4") as sp:
                sp.set_attr("late", 1)
        assert sp.attrs == {"sd": 300, "model": "eq4", "late": 1}

    def test_exception_marks_span_and_still_records(self):
        with obs.enabled():
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("x")
        [sp] = obs.get_tracer().spans
        assert sp.attrs["error"] == "ValueError"


class TestDisabledNoOp:
    def test_span_records_nothing_when_disabled(self):
        with obs.span("ghost"):
            pass
        assert len(obs.get_tracer()) == 0

    def test_null_span_is_shared_and_inert(self):
        a = obs.span("a")
        b = obs.span("b")
        assert a is b
        a.set_attr("k", "v")  # must not raise

    def test_traced_function_result_unchanged_when_disabled(self):
        cost_disabled = PAPER_FIGURE4_MODEL.transistor_cost(
            300.0, 1e7, 0.18, 5000.0, 0.4, 8.0)
        with obs.enabled():
            cost_enabled = PAPER_FIGURE4_MODEL.transistor_cost(
                300.0, 1e7, 0.18, 5000.0, 0.4, 8.0)
        assert cost_disabled == cost_enabled
        assert len(obs.get_tracer()) > 0

    def test_enabled_context_restores_previous_state(self):
        assert not obs.is_enabled()
        with obs.enabled():
            assert obs.is_enabled()
        assert not obs.is_enabled()


class TestTracer:
    def test_cap_drops_and_counts(self):
        tracer = obs.get_tracer()
        tracer.max_spans = 3
        try:
            with obs.enabled():
                for _ in range(5):
                    with obs.span("s"):
                        pass
            assert len(tracer) == 3
            assert tracer.dropped == 2
        finally:
            tracer.max_spans = 100_000

    def test_reset_clears_everything(self):
        with obs.enabled():
            with obs.span("s"):
                pass
        obs.reset()
        assert len(obs.get_tracer()) == 0
        assert obs.get_tracer().dropped == 0

    def test_roots_and_children(self):
        with obs.enabled():
            with obs.span("root") as root:
                with obs.span("kid"):
                    pass
        tracer = obs.get_tracer()
        assert [s.name for s in tracer.roots()] == ["root"]
        assert [s.name for s in tracer.children_of(root.span_id)] == ["kid"]


class TestStopwatch:
    def test_elapsed_monotone_and_freezes(self):
        sw = obs.Stopwatch().start()
        first = sw.elapsed()
        second = sw.elapsed()
        assert second >= first >= 0.0
        frozen = sw.stop()
        assert sw.elapsed() == frozen


class TestExportRoundTrip:
    def test_jsonl_round_trip_preserves_spans(self, tmp_path):
        with obs.enabled():
            with obs.span("outer", sd=300):
                with obs.span("inner"):
                    pass
            obs.inc("count.me", 2)
            obs.record_provenance("src", "3", {"sd": 300})
        path = tmp_path / "trace.jsonl"
        n_lines = obs.export_jsonl(path)
        records = obs.read_jsonl(path)
        assert len(records) == n_lines
        spans = [r for r in records if r["type"] == "span"]
        original = obs.get_tracer().spans
        assert len(spans) == len(original)
        by_name = {s["name"]: s for s in spans}
        for sp in original:
            dumped = by_name[sp.name]
            assert dumped["id"] == sp.span_id
            assert dumped["parent_id"] == sp.parent_id
            assert dumped["duration"] == pytest.approx(sp.duration)
            assert dumped["attrs"] == sp.attrs
        kinds = {r["type"] for r in records}
        assert kinds == {"span", "metric", "provenance"}

    def test_tree_renders_from_reread_file(self, tmp_path):
        with obs.enabled():
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        path = tmp_path / "trace.jsonl"
        obs.export_jsonl(path)
        tree = obs.format_span_tree(obs.read_jsonl(path))
        assert tree == obs.format_span_tree()
        assert "outer" in tree
        assert "inner x2" in tree  # same-name siblings collapse

    def test_empty_tree_is_explicit(self):
        assert obs.format_span_tree() == "(no spans recorded)"

    def test_summary_rolls_up_per_name(self):
        with obs.enabled():
            for _ in range(3):
                with obs.span("hot"):
                    pass
        [row] = obs.summary()
        assert row["name"] == "hot"
        assert row["calls"] == 3
        assert row["mean_s"] == pytest.approx(row["total_s"] / 3)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=120, cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestCliTrace:
    def test_trace_flag_appends_span_tree(self):
        result = run_cli("report", "--trace")
        assert result.returncode == 0, result.stderr
        assert "cost contradiction" in result.stdout  # report still there
        header = [l for l in result.stdout.splitlines() if l.startswith("trace:")]
        assert header, "missing trace section"
        n_spans = int(header[0].split()[1])
        assert n_spans >= 9
        trace_text = result.stdout.split("trace:", 1)[1]
        for module in ("api.", "cost.", "density.", "roadmap.", "optimize."):
            assert module in trace_text, f"no {module} span in CLI trace"

    def test_metrics_flag_appends_nonempty_table(self):
        result = run_cli("report", "--metrics")
        assert result.returncode == 0, result.stderr
        assert "\nmetrics\n" in result.stdout
        assert "counter" in result.stdout
        assert ".calls" in result.stdout

    def test_profile_flag_appends_rollup(self):
        result = run_cli("report", "--profile")
        assert result.returncode == 0, result.stderr
        assert "profile (per-span roll-up)" in result.stdout
        assert "total_ms" in result.stdout

    def test_no_flags_means_no_observability_sections(self):
        result = run_cli("report")
        assert result.returncode == 0, result.stderr
        assert "trace:" not in result.stdout
        assert "\nmetrics\n" not in result.stdout
        assert "profile" not in result.stdout

    def test_unknown_flag_rejected(self):
        result = run_cli("report", "--frobnicate")
        assert result.returncode == 2
        assert "unknown flag" in result.stderr
