"""Exposition tests: Prometheus rendering, parsing, OTLP, HTTP endpoint.

``render_prometheus`` must emit text a real scraper accepts — the
acceptance check here is the round trip through the strict grammar
validator ``parse_prometheus`` — and the stdlib HTTP endpoint must
serve live registry values. The snapshot bundle (what the CLI's
``--telemetry`` flag and CI upload) is checked file by file.
"""

import json
import math
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.errors import DomainError
from repro.obs.exposition import (
    SKETCH_FAMILY,
    parse_prometheus,
    registry_from_records,
    render_prometheus,
    spans_to_otlp,
    start_metrics_endpoint,
    write_snapshot,
)
from repro.obs.metrics import HISTOGRAM_BUCKET_BOUNDS, MetricsRegistry


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("requests_total", {"backend": "numpy"}).inc(3)
    reg.counter("requests_total", {"backend": "python"}).inc(1)
    reg.gauge("cache_entries").set(42.0)
    h = reg.histogram("grid_points", {"where": "sweep"})
    for v in (10.0, 500.0, 2e6):
        h.observe(v)
    reg.sketch("engine.evaluate_grid").observe(1.5e-3)
    return reg


class TestRenderParse:
    def test_round_trips_through_strict_parser(self):
        text = render_prometheus(_populated_registry())
        samples = parse_prometheus(text)
        by_name = {}
        for s in samples:
            by_name.setdefault(s["name"], []).append(s)
        assert {s["labels"]["backend"]: s["value"]
                for s in by_name["requests_total"]} == \
            {"numpy": 3.0, "python": 1.0}
        assert by_name["cache_entries"][0]["value"] == 42.0
        # Histogram: cumulative buckets, closing +Inf equals the count.
        buckets = by_name["grid_points_bucket"]
        assert buckets[-1]["labels"]["le"] == "+Inf"
        assert buckets[-1]["value"] == 3.0
        assert len(buckets) == len(HISTOGRAM_BUCKET_BOUNDS) + 1
        assert by_name["grid_points_count"][0]["value"] == 3.0
        # Sketches fold into one summary family with span+quantile labels.
        quantiles = [s for s in by_name[SKETCH_FAMILY]
                     if s["labels"]["span"] == "engine.evaluate_grid"]
        assert {s["labels"]["quantile"] for s in quantiles} == \
            {"0.5", "0.9", "0.99"}

    def test_dotted_names_are_sanitized(self):
        reg = MetricsRegistry()
        reg.gauge("engine.parallel.enabled").set(0.5)
        text = render_prometheus(reg)
        assert "engine_parallel_enabled 0.5" in text
        parse_prometheus(text)

    def test_label_values_escape(self):
        reg = MetricsRegistry()
        reg.counter("odd_total", {"path": 'a"b\\c\nd'}).inc()
        text = render_prometheus(reg)
        (sample,) = parse_prometheus(text)
        assert sample["labels"]["path"] == 'a"b\\c\nd'

    def test_nonfinite_values_render(self):
        reg = MetricsRegistry()
        reg.gauge("empty_min").set(math.inf)
        reg.gauge("unset").set(math.nan)
        samples = {s["name"]: s["value"]
                   for s in parse_prometheus(render_prometheus(reg))}
        assert samples["empty_min"] == math.inf
        assert math.isnan(samples["unset"])

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""
        assert parse_prometheus("") == []

    @pytest.mark.parametrize("bad", [
        "no spaces or value",
        'name{unclosed="x" 1',
        'name{bad-key="x"} 1',
        "name notanumber",
        "# TYPE name wrongkind",
        "# TYPE name counter\n# TYPE name counter\nname 1",
    ])
    def test_parser_rejects_junk(self, bad):
        with pytest.raises(DomainError):
            parse_prometheus(bad)

    def test_parser_error_is_a_valueerror(self):
        with pytest.raises(ValueError):
            parse_prometheus("???")


class TestRoundTripEdgeCases:
    """Satellite coverage: escaping, +Inf buckets, empty render."""

    @pytest.mark.parametrize("value", [
        "\n",                # bare newline
        '"',                 # bare double quote
        "\\",                # bare backslash
        "ends with \\",      # trailing backslash (escape must not eat the quote)
        "\\n",               # literal backslash-n, not a newline
        'mix "of\n every\\thing"',
        "",                  # empty label value round-trips as empty
    ])
    def test_label_value_escaping_round_trips(self, value):
        reg = MetricsRegistry()
        reg.counter("edge_total", {"path": value}).inc()
        (sample,) = parse_prometheus(render_prometheus(reg))
        assert sample["labels"]["path"] == value

    def test_distinct_escaped_values_stay_distinct(self):
        # "\\n" (backslash + n) and "\n" (newline) must not collapse
        # into one series through the escape/unescape cycle.
        reg = MetricsRegistry()
        reg.counter("edge_total", {"path": "\\n"}).inc(1)
        reg.counter("edge_total", {"path": "\n"}).inc(2)
        samples = parse_prometheus(render_prometheus(reg))
        assert {s["labels"]["path"]: s["value"] for s in samples} == \
            {"\\n": 1.0, "\n": 2.0}

    def test_histogram_inf_bucket_is_cumulative_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency")
        # One observation beyond the largest finite bound lands only in
        # the +Inf bucket; the closing bucket still equals the count.
        h.observe(float(HISTOGRAM_BUCKET_BOUNDS[-1]) * 10.0)
        h.observe(0.5)
        samples = parse_prometheus(render_prometheus(reg))
        buckets = [s for s in samples if s["name"] == "latency_bucket"]
        assert buckets[-1]["labels"]["le"] == "+Inf"
        assert buckets[-1]["value"] == 2.0
        # The largest finite bound has seen only the in-range point.
        assert buckets[-2]["value"] == 1.0
        # Cumulative: monotone non-decreasing across the bucket ladder.
        values = [s["value"] for s in buckets]
        assert values == sorted(values)
        (count,) = [s for s in samples if s["name"] == "latency_count"]
        assert count["value"] == 2.0

    def test_empty_histogram_renders_parseable_zero_buckets(self):
        reg = MetricsRegistry()
        reg.histogram("untouched")
        samples = parse_prometheus(render_prometheus(reg))
        by_name = {}
        for s in samples:
            by_name.setdefault(s["name"], []).append(s)
        assert by_name["untouched_count"][0]["value"] == 0.0
        assert all(s["value"] == 0.0 for s in by_name["untouched_bucket"])

    def test_empty_registry_render_is_empty_and_reparses(self):
        text = render_prometheus(MetricsRegistry())
        assert text == ""
        assert parse_prometheus(text) == []


class TestRecordsRoundTrip:
    def test_jsonl_metric_records_rebuild_the_registry(self, tmp_path):
        obs.enable()
        obs.inc("events_total", 5.0, labels={"kind": "hit"})
        obs.observe("sizes", 123.0)
        obs.disable()
        out = tmp_path / "trace.jsonl"
        obs.export_jsonl(out)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        reg = registry_from_records(records)
        assert reg.counters['events_total{kind="hit"}'].value == 5.0
        assert reg.histograms["sizes"].count == 1
        parse_prometheus(render_prometheus(reg))


class TestOtlp:
    def test_span_tree_exports_with_ids_and_attrs(self):
        obs.enable()
        with obs.span("outer", equation="4"):
            with obs.span("inner", points=100, exact=True):
                pass
        obs.disable()
        doc = spans_to_otlp()
        scope = doc["resourceSpans"][0]["scopeSpans"][0]
        spans = {s["name"]: s for s in scope["spans"]}
        assert len(spans["outer"]["spanId"]) == 16
        assert len(spans["outer"]["traceId"]) == 32
        assert spans["inner"]["traceId"] == spans["outer"]["traceId"]
        assert spans["inner"]["parentSpanId"] == spans["outer"]["spanId"]
        attrs = {a["key"]: a["value"] for a in spans["inner"]["attributes"]}
        assert attrs["points"] == {"intValue": "100"}
        assert attrs["exact"] == {"boolValue": True}
        assert int(spans["outer"]["endTimeUnixNano"]) >= \
            int(spans["outer"]["startTimeUnixNano"])


class TestEndpoint:
    def _get(self, url: str) -> tuple[int, bytes]:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read()

    def test_serves_live_metrics_and_health(self):
        obs.enable()
        obs.inc("served_total", 2.0, labels={"route": "metrics"})
        with start_metrics_endpoint() as endpoint:
            assert endpoint.port > 0
            status, body = self._get(endpoint.url + "/metrics")
            assert status == 200
            samples = {s["name"]: s for s in
                       parse_prometheus(body.decode())}
            assert samples["served_total"]["value"] == 2.0
            # Live, not a snapshot: a later inc shows on the next scrape.
            obs.inc("served_total", 1.0, labels={"route": "metrics"})
            _, body = self._get(endpoint.url + "/metrics")
            samples = {s["name"]: s for s in
                       parse_prometheus(body.decode())}
            assert samples["served_total"]["value"] == 3.0
            status, body = self._get(endpoint.url + "/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"

    def test_unknown_route_is_404(self):
        with start_metrics_endpoint() as endpoint:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._get(endpoint.url + "/nope")
            assert err.value.code == 404

    def test_healthz_reports_provenance_contract(self):
        from repro.bench.schema import SCHEMA_ID as BENCH_SCHEMA_ID
        from repro.obs.history import HISTORY_SCHEMA_ID
        with start_metrics_endpoint() as endpoint:
            status, body = self._get(endpoint.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["git_sha"]  # "unknown" outside git, never empty
        assert payload["schemas"] == {
            "history": HISTORY_SCHEMA_ID,
            "bench": BENCH_SCHEMA_ID,
            "prometheus_text": "0.0.4",
        }
        assert payload["uptime_s"] >= 0.0


class TestSnapshot:
    def test_bundle_files_and_content(self, tmp_path):
        obs.enable()
        with obs.span("snap.outer"):
            obs.inc("snap_total")
        obs.disable()
        paths = write_snapshot(tmp_path / "bundle")
        assert sorted(p.name for p in paths.values()) == \
            ["metrics.prom", "provenance.json", "spans.otlp.json"]
        samples = parse_prometheus(paths["metrics"].read_text())
        assert any(s["name"] == "snap_total" for s in samples)
        otlp = json.loads(paths["spans"].read_text())
        names = [s["name"] for s in
                 otlp["resourceSpans"][0]["scopeSpans"][0]["spans"]]
        assert "snap.outer" in names
        assert "records" in json.loads(paths["provenance"].read_text())
