"""Run-history store, cross-run drift detection, and trend reporting.

The acceptance contract (ISSUE 9): a synthetic 20-run history with a
10x p99 regression injected in the last run must be flagged by
:func:`repro.obs.detect_drift` while an in-band wobble is not, and
``python -m repro.obs report`` must render both the text trend table
and the self-contained HTML dashboard from the same store. Storage
semantics — schema versioning, migration-on-open, atomic writes,
typed query records — are covered alongside.
"""

import json
import sqlite3
import threading

import numpy as np
import pytest

from repro import obs
from repro.engine import evaluate_grid
from repro.engine.kernels import Eq4SdKernel
from repro.cost import PAPER_FIGURE4_MODEL
from repro.errors import CollectedErrors, DataError, DomainError
from repro.obs import history as obs_history
from repro.obs.cli import main as obs_main
from repro.obs.history import (
    HISTORY_SCHEMA_ID,
    HISTORY_SCHEMA_VERSION,
    HistoryStore,
    RunRecord,
    detect_drift,
    flatten_samples,
    format_trend_table,
    render_html_dashboard,
)
from repro.obs.metrics import MetricsRegistry
from repro.robust import ErrorPolicy

FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5_000,
             yield_fraction=0.4, cost_per_cm2=8.0)


@pytest.fixture()
def store(tmp_path):
    with HistoryStore(tmp_path / "runs.sqlite") as st:
        yield st


def _registry(p99_s: float = 0.010, hits: int = 10) -> MetricsRegistry:
    """One synthetic run's registry: a counter, a gauge, a sketch."""
    reg = MetricsRegistry()
    reg.counter("engine_dispatch_total", {"backend": "numpy"}).inc(7)
    reg.counter("engine_points_total", {"backend": "numpy"}).inc(hits)
    reg.gauge("engine_parallel_enabled").set(1.0)
    sketch = reg.sketch("engine.evaluate_grid")
    for i in range(60):
        sketch.observe(p99_s * (1.0 + 0.01 * ((i % 9) - 4)))
    return reg


def _populate(store, n_runs: int = 20, last_p99: float | None = None):
    """Record ``n_runs`` stable runs; optionally regress the last one."""
    for i in range(n_runs):
        p99 = 0.010
        if last_p99 is not None and i == n_runs - 1:
            p99 = last_p99
        store.record_run(
            "repro.report", wall_time_s=1.0, backend="numpy",
            registry=_registry(p99_s=p99))


class TestStore:
    def test_fresh_store_is_schema_versioned(self, store):
        version = store._conn.execute("PRAGMA user_version").fetchone()[0]
        assert version == HISTORY_SCHEMA_VERSION
        (schema,) = store._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema'").fetchone()
        assert schema == HISTORY_SCHEMA_ID

    def test_reopen_is_idempotent(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        with HistoryStore(path) as st:
            st.record_run("cmd", wall_time_s=0.1, registry=_registry())
        with HistoryStore(path) as st:
            assert len(st) == 1

    def test_newer_schema_is_rejected_not_rewritten(self, tmp_path):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {HISTORY_SCHEMA_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(DataError, match="newer"):
            HistoryStore(path)

    def test_non_database_file_is_a_dataerror(self, tmp_path):
        path = tmp_path / "junk.sqlite"
        path.write_bytes(b"definitely not sqlite" * 100)
        with pytest.raises(DataError):
            HistoryStore(path)

    def test_record_run_returns_typed_record(self, store):
        record = store.record_run(
            "repro.bench", wall_time_s=2.5, backend="numpy",
            registry=_registry(),
            extra_samples={"bench:sweep:median_s": 0.25})
        assert isinstance(record, RunRecord)
        assert record.run_id == 1
        assert record.command == "repro.bench"
        assert record.git_sha and record.python and record.constants_version
        assert record.samples["bench:sweep:median_s"] == 0.25
        assert record.samples["run:wall_time_s"] == 2.5
        # The stored registry snapshot round-trips through the wire format.
        reg = record.registry()
        assert reg.counters[
            'engine_dispatch_total{backend="numpy"}'].value == 7.0
        assert reg.sketches["engine.evaluate_grid"].count == 60

    def test_record_run_validates_inputs(self, store):
        with pytest.raises(DomainError):
            store.record_run("", wall_time_s=1.0, registry=_registry())
        with pytest.raises(DomainError):
            store.record_run("cmd", wall_time_s=-1.0, registry=_registry())

    def test_runs_filters_and_order(self, store):
        store.record_run("a", wall_time_s=1.0, backend="numpy",
                         registry=_registry(),
                         environment={"git_sha": "aaa"})
        store.record_run("b", wall_time_s=1.0, backend="python",
                         registry=_registry(),
                         environment={"git_sha": "bbb"})
        store.record_run("a", wall_time_s=1.0, backend="numpy",
                         registry=_registry(),
                         environment={"git_sha": "ccc"})
        assert [r.run_id for r in store.runs()] == [1, 2, 3]
        assert [r.run_id for r in store.runs(command="a")] == [1, 3]
        assert [r.run_id for r in store.runs(backend="python")] == [2]
        assert [r.run_id for r in store.runs(git_sha="ccc")] == [3]
        assert [r.run_id for r in store.latest(2)] == [2, 3]
        with pytest.raises(DomainError):
            store.runs(limit=0)

    def test_series_by_labels_and_field(self, store):
        _populate(store, n_runs=3)
        counters = store.series("engine_dispatch_total",
                                {"backend": "numpy"})
        assert [p.value for p in counters] == [7.0, 7.0, 7.0]
        assert counters[0].run_id == 1 and counters[-1].run_id == 3
        p99 = store.series("engine.evaluate_grid", field="p99")
        assert len(p99) == 3 and all(p.value > 0 for p in p99)
        assert store.series("no_such_metric") == []
        keys = store.series_keys()
        assert "engine.evaluate_grid:p99" in keys
        assert "run:wall_time_s" in keys

    def test_writes_are_atomic_under_threads(self, tmp_path):
        with HistoryStore(tmp_path / "threads.sqlite") as st:
            errors = []

            def writer():
                try:
                    for _ in range(5):
                        st.record_run("thread", wall_time_s=0.1,
                                      registry=_registry())
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=writer) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert len(st) == 20
            # Every payload parses — no torn writes.
            for record in st.runs():
                assert record.samples


class TestFlatten:
    def test_flatten_covers_all_metric_kinds(self):
        reg = _registry()
        reg.histogram("engine_grid_points").observe(100.0)
        samples = flatten_samples(reg)
        assert samples['engine_dispatch_total{backend="numpy"}'] == 7.0
        assert samples["engine_parallel_enabled"] == 1.0
        assert samples["engine_grid_points:mean"] == 100.0
        assert samples["engine_grid_points:count"] == 1.0
        assert samples["engine.evaluate_grid:p50"] > 0.0


class TestDrift:
    def test_ten_x_p99_regression_is_flagged(self, store):
        _populate(store, n_runs=20, last_p99=0.100)
        report = detect_drift(store)
        assert not report.ok
        flagged = {v.key for v in report.flagged}
        assert "engine.evaluate_grid:p99" in flagged
        verdict = {v.key: v for v in report.verdicts}[
            "engine.evaluate_grid:p99"]
        assert verdict.direction == "high"
        assert verdict.latest > 9 * verdict.median
        # Stable series stayed inside their band.
        stable = {v.key: v.status for v in report.verdicts}
        assert stable['engine_dispatch_total{backend="numpy"}'] == "ok"
        # MASK (the default) emitted one diagnostic per flagged series.
        assert len(report.diagnostics) == len(report.flagged)

    def test_in_band_wobble_is_not_flagged(self, store):
        # 2% wobble sits well inside the 20% relative floor.
        _populate(store, n_runs=20, last_p99=0.0102)
        report = detect_drift(store)
        assert report.ok
        assert report.counts()["drift"] == 0

    def test_short_series_is_insufficient_never_flagged(self, store):
        _populate(store, n_runs=3, last_p99=1.0)
        report = detect_drift(store, min_runs=5)
        assert report.ok
        assert all(v.status == "insufficient" for v in report.verdicts)

    def test_raise_policy_propagates_first_drift(self, store):
        _populate(store, n_runs=20, last_p99=0.100)
        with pytest.raises(DomainError, match="drifted"):
            detect_drift(store, policy=ErrorPolicy.RAISE)

    def test_collect_policy_aggregates(self, store):
        _populate(store, n_runs=20, last_p99=0.100)
        with pytest.raises(CollectedErrors) as err:
            detect_drift(store, policy=ErrorPolicy.COLLECT)
        assert len(err.value.diagnostics) >= 1

    def test_parameter_validation(self, store):
        _populate(store, n_runs=5)
        with pytest.raises(DomainError):
            detect_drift(store, window=1)
        with pytest.raises(DomainError):
            detect_drift(store, min_runs=2)
        with pytest.raises(DomainError):
            detect_drift(store, mad_scale=0.0)

    def test_explicit_keys_restrict_the_scan(self, store):
        _populate(store, n_runs=20, last_p99=0.100)
        report = detect_drift(store,
                              keys=['engine_dispatch_total'
                                    '{backend="numpy"}'])
        assert report.ok
        assert len(report.verdicts) == 1


class TestRecorder:
    @pytest.fixture(autouse=True)
    def _fresh(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_note_evaluation_without_recorder_is_a_noop(self):
        obs.note_evaluation("numpy", 100)  # must not raise

    def test_engine_sink_feeds_the_active_recorder(self, tmp_path):
        kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
        grid = np.linspace(150.0, 900.0, 64)
        with obs_history.recording(tmp_path / "rec.sqlite",
                                   "test.sweep") as rec:
            evaluate_grid(kernel, grid, where="test.history")
            evaluate_grid(kernel, grid, where="test.history")
        record = rec.record
        assert record is not None
        assert record.command == "test.sweep"
        assert record.backend == "numpy"
        assert record.samples["history_grid_evaluations_total"] == 2.0
        assert record.samples["history_grid_points_total"] == 128.0
        assert record.wall_time_s > 0.0

    def test_failed_run_is_not_recorded(self, tmp_path):
        path = tmp_path / "fail.sqlite"
        with pytest.raises(RuntimeError):
            with obs_history.recording(path, "test.fail"):
                raise RuntimeError("boom")
        with HistoryStore(path) as st:
            assert len(st) == 0

    def test_nested_recorders_are_rejected(self, tmp_path):
        with obs_history.recording(tmp_path / "a.sqlite", "outer"):
            with pytest.raises(DomainError, match="already active"):
                with obs_history.recording(tmp_path / "b.sqlite", "inner"):
                    pass  # pragma: no cover


class TestReporting:
    def test_trend_table_shows_sparkline_and_verdict(self, store):
        _populate(store, n_runs=20, last_p99=0.100)
        report = detect_drift(store)
        table = format_trend_table(store, drift=report)
        assert "engine.evaluate_grid:p99" in table
        assert "drift" in table
        assert "█" in table  # the regression spike dominates the sparkline

    def test_html_dashboard_is_self_contained(self, store):
        _populate(store, n_runs=20, last_p99=0.100)
        report = detect_drift(store)
        html = render_html_dashboard(store, drift=report)
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html and "polyline" in html
        assert 'class="drift"' in html  # flagged row highlighted
        assert HISTORY_SCHEMA_ID in html  # provenance footer
        assert store.runs()[-1].git_sha in html
        # Self-contained: no external scripts, stylesheets, or images.
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html

    def test_empty_store_renders_gracefully(self, store):
        assert "no series" in format_trend_table(store)
        assert "no series" in render_html_dashboard(store)


class TestCli:
    def _seeded(self, tmp_path, **kwargs):
        path = tmp_path / "runs.sqlite"
        with HistoryStore(path) as st:
            _populate(st, **kwargs)
        return path

    def test_report_writes_dashboard_and_table(self, tmp_path, capsys):
        path = self._seeded(tmp_path, n_runs=20, last_p99=0.100)
        assert obs_main(["report", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run history" in out
        assert "drift check: FLAGGED" in out
        html_path = path.with_suffix(".html")
        assert html_path.exists()
        assert "<svg" in html_path.read_text()

    def test_report_strict_exits_2_on_drift(self, tmp_path):
        path = self._seeded(tmp_path, n_runs=20, last_p99=0.100)
        assert obs_main(["report", "--strict", "--history", str(path),
                         "--html", "-"]) == 2

    def test_drift_exit_codes(self, tmp_path):
        flagged = self._seeded(tmp_path, n_runs=20, last_p99=0.100)
        assert obs_main(["drift", "--history", str(flagged)]) == 2
        clean = tmp_path / "clean.sqlite"
        with HistoryStore(clean) as st:
            _populate(st, n_runs=20)
        assert obs_main(["drift", "--history", str(clean)]) == 0

    def test_runs_lists_provenance(self, tmp_path, capsys):
        path = self._seeded(tmp_path, n_runs=3)
        assert obs_main(["runs", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro.report" in out and "numpy" in out

    def test_missing_store_is_exit_1(self, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.delenv("REPRO_HISTORY", raising=False)
        assert obs_main(["report"]) == 1
        missing = tmp_path / "nope.sqlite"
        assert obs_main(["report", "--history", str(missing)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_env_var_names_the_default_store(self, tmp_path, capsys,
                                             monkeypatch):
        path = self._seeded(tmp_path, n_runs=20)
        monkeypatch.setenv("REPRO_HISTORY", str(path))
        assert obs_main(["drift"]) == 0


class TestPayloadFormat:
    def test_payload_is_sorted_json(self, store):
        store.record_run("cmd", wall_time_s=1.0, registry=_registry())
        (payload_text,) = store._conn.execute(
            "SELECT payload FROM runs").fetchone()
        payload = json.loads(payload_text)
        assert set(payload) == {"metrics", "sketches", "samples"}
        assert payload["sketches"]["engine.evaluate_grid"]["count"] == 60
        assert payload["sketches"]["engine.evaluate_grid"]["p99"] > 0

    def test_stored_supervision_key_is_ignored(self, store):
        # Runs recorded while the engine still had a process pool carry
        # its supervision counters in the payload: they must still load.
        store.record_run("cmd", wall_time_s=1.0, registry=_registry())
        (payload_text,) = store._conn.execute(
            "SELECT payload FROM runs").fetchone()
        payload = json.loads(payload_text)
        payload["supervision"] = {"retries": 2, "breaker_state": "closed"}
        store._conn.execute("UPDATE runs SET payload = ?",
                            (json.dumps(payload, sort_keys=True),))
        store._conn.commit()
        record, = store.runs()
        assert not hasattr(record, "supervision")
        assert record.metrics == payload["metrics"]
        assert record.samples == payload["samples"]
