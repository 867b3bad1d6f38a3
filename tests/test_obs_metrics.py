"""Metrics registry tests: counter/gauge/histogram semantics and gating."""

import math

import pytest

from repro import obs
from repro.errors import DomainError
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate each test from global observability state."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestPrimitives:
    def test_counter_accumulates(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_keeps_latest(self):
        g = Gauge("g")
        g.set(1.0)
        g.set(-4.0)
        assert g.value == -4.0

    def test_histogram_aggregates(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 6.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 9.0
        assert (h.min, h.max) == (1.0, 6.0)
        assert h.mean == 3.0

    def test_empty_histogram_mean_is_nan(self):
        assert math.isnan(Histogram("h").mean)


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.histogram("z") is reg.histogram("z")

    def test_rows_cover_all_kinds(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(4.0)
        rows = reg.rows()
        kinds = {kind for _, kind, _, _ in rows}
        assert kinds == {"counter", "gauge", "histogram"}
        by_name = {name: (kind, value, count) for name, kind, value, count in rows}
        assert by_name["c"] == ("counter", 5, 5)
        assert by_name["h"][1] == 4.0  # histogram reports mean

    def test_reset_and_is_empty(self):
        reg = MetricsRegistry()
        assert reg.is_empty()
        reg.counter("c").inc()
        assert not reg.is_empty()
        reg.reset()
        assert reg.is_empty()


class TestSketchRegistry:
    def test_sketch_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.sketch("s") is reg.sketch("s")
        assert reg.sketch("s").name == "s"

    def test_reset_and_is_empty_cover_sketches(self):
        reg = MetricsRegistry()
        assert reg.is_empty()
        reg.sketch("s").observe(0.001)
        assert not reg.is_empty()
        reg.reset()
        assert reg.is_empty()

    def test_sketch_rows_sorted_with_percentiles(self):
        reg = MetricsRegistry()
        for ms in (1, 2, 3):
            reg.sketch("b.span").observe(ms / 1e3)
        reg.sketch("a.span").observe(0.010)
        rows = reg.sketch_rows()
        assert [row[0] for row in rows] == ["a.span", "b.span"]
        name, count, p50, p90, p99, mx = rows[1]
        assert count == 3
        assert p50 == pytest.approx(0.002, rel=0.02)
        assert mx == pytest.approx(0.003)

    def test_observe_duration_gated(self):
        obs.observe_duration("never", 0.5)
        assert obs.get_registry().is_empty()
        with obs.enabled():
            obs.observe_duration("hot", 0.5)
        assert obs.get_registry().sketch("hot").count == 1

    def test_spans_feed_duration_sketches(self):
        with obs.enabled():
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        reg = obs.get_registry()
        assert reg.sketch("outer").count == 1
        assert reg.sketch("inner").count == 1
        assert reg.sketch("inner").max <= reg.sketch("outer").max

    def test_disabled_spans_feed_nothing(self):
        with obs.span("ghost"):
            pass
        assert obs.get_registry().is_empty()


class TestGatedHelpers:
    def test_helpers_noop_while_disabled(self):
        obs.inc("never", 3)
        obs.set_gauge("never.g", 1.0)
        obs.observe("never.h", 1.0)
        assert obs.get_registry().is_empty()

    def test_helpers_record_while_enabled(self):
        with obs.enabled():
            obs.inc("calls", 2)
            obs.set_gauge("level", 7.0)
            obs.observe("size", 10.0)
        reg = obs.get_registry()
        assert reg.counter("calls").value == 2
        assert reg.gauge("level").value == 7.0
        assert reg.histogram("size").count == 1


class TestCounterHandle:
    def test_counts_like_inc_and_is_gated(self):
        inc = obs_metrics.counter_handle("handled", {"route": "a", "status": 200})
        inc()
        assert obs.get_registry().is_empty()
        with obs.enabled():
            inc()
            inc(2)
            obs.inc("handled", labels={"status": "200", "route": "a"})
        reg = obs.get_registry()
        assert list(reg.counters) == ['handled{route="a",status="200"}']
        assert reg.counter("handled", {"route": "a", "status": "200"}).value == 4

    def test_survives_reset(self):
        inc = obs_metrics.counter_handle("handled", {"route": "a"})
        with obs.enabled():
            inc()
            obs.reset()
            inc()
        assert obs.get_registry().counter("handled", {"route": "a"}).value == 1

    def test_labels_are_checked_when_made(self):
        with pytest.raises(DomainError, match="snake_case"):
            obs_metrics.counter_handle("handled", {"Route": "a"})


class TestInstrumentedPaths:
    def test_model_evaluations_counted(self):
        with obs.enabled():
            obs.get_registry().reset()
            from repro.cost import transistor_cost
            transistor_cost(8.0, 0.18, 300, 0.8)
            transistor_cost(8.0, 0.18, 300, 0.8)
        counter = obs.get_registry().counter(
            "cost.manufacturing.transistor_cost.calls")
        assert counter.value == 2

    def test_sweep_grid_sizes_observed(self):
        from repro.cost import PAPER_FIGURE4_MODEL
        from repro.optimize import sd_sweep
        with obs.enabled():
            sd_sweep(PAPER_FIGURE4_MODEL, 1e7, 0.18, 5000, 0.4, 8.0)
        hist = obs.get_registry().histogram("optimize_sweep_grid_points")
        assert hist.count == 1
        assert hist.min == 400  # the default sd_grid size

    def test_table_a1_cache_counters(self):
        from repro.data import DesignRegistry
        with obs.enabled():
            DesignRegistry.table_a1()
            DesignRegistry.table_a1()
        reg = obs.get_registry()
        hits = reg.counter("data_table_a1_cache_hits_total").value
        misses = reg.counter("data_table_a1_cache_misses_total").value
        assert hits + misses == 2
        assert hits >= 1  # second call is always served from the cache

    def test_format_metrics_table(self):
        with obs.enabled():
            obs.inc("a.calls")
        text = obs.format_metrics_table()
        assert "a.calls" in text
        assert "counter" in text

    def test_format_metrics_table_empty(self):
        assert obs.format_metrics_table() == "(no metrics recorded)"
