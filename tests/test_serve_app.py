"""HTTP layer integration: routes, error contract, burst determinism.

Each test boots a real server (``repro.obs.transport``, one asyncio
event loop) on an ephemeral port and talks to it through
:class:`repro.serve.ServeClient` — the same wire dataclasses on both
ends. Pinned here:

* per-policy round trips (RAISE → 422 with the taxonomy code,
  MASK/COLLECT → 200 with a ``diagnostics`` array);
* the acceptance burst: 64 concurrent ``/evaluate`` clients, each
  point sent twice, produce results bit-identical to sequential
  ``Scenario.evaluate`` calls;
* rate limiting (429 + ``Retry-After``), 400/404 mapping, and the
  request span/counter telemetry.
"""

import json
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.api import Scenario, evaluate
from repro.cost import TotalCostModel
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServeClient, ServeError, start_server
from repro.serve.schemas import EvaluateRequest
from repro.serve.service import CostService
from repro.wafer import WAFER_300MM

BASE = {"n_transistors": 1e7, "feature_um": 0.18, "sd": 300.0,
        "n_wafers": 5_000.0, "yield_fraction": 0.4, "cost_per_cm2": 8.0}
BAD = {**BASE, "yield_fraction": -1.0}


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def server(registry):
    with start_server(registry=registry) as handle:
        yield handle


@pytest.fixture
def client(server):
    return ServeClient(server.url)


class TestEvaluateRoute:
    def test_single_point_matches_the_facade(self, client):
        response = client.evaluate(BASE)
        expected = evaluate(Scenario(**{k: v for k, v in BASE.items()}))
        point = response.results[0]
        assert point.cost_per_transistor_usd == expected.cost_per_transistor_usd
        assert point.area_cm2 == expected.area_cm2
        assert point.die_cost_usd == expected.die_cost_usd
        assert point.ok

    def test_in_process_service_prices_each_scenarios_model(self):
        base = Scenario(n_transistors=1e7, feature_um=0.18)
        scenarios = (base,
                     base.replace(model=TotalCostModel(utilization=0.5)),
                     base.replace(model=TotalCostModel(test_model=None,
                                                       include_masks=True),
                                  wafer=WAFER_300MM))
        response = CostService().evaluate(EvaluateRequest(scenarios=scenarios))
        assert [p.cost_per_transistor_usd for p in response.results] == [
            s.evaluate().cost_per_transistor_usd for s in scenarios]

    def test_batch_preserves_order_and_labels(self, client):
        scenarios = [{**BASE, "sd": 150.0 + 50.0 * i, "label": f"p{i}"}
                     for i in range(5)]
        response = client.evaluate_many(scenarios)
        assert [p.label for p in response.results] == [
            f"p{i}" for i in range(5)]

    def test_raise_maps_to_422_with_taxonomy_code(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.evaluate(BAD)
        assert excinfo.value.status == 422
        assert excinfo.value.error.code == "DomainError"
        assert "yield" in excinfo.value.error.message

    def test_mask_returns_200_with_diagnostics(self, client):
        response = client.evaluate_many([BASE, BAD], policy="mask")
        assert [p.ok for p in response.results] == [True, False]
        assert response.results[1].cost_per_transistor_usd is None
        assert len(response.diagnostics) == 1
        assert response.diagnostics[0].error_type == "DomainError"

    def test_collect_returns_200_with_aggregate_diagnostics(self, client):
        response = client.evaluate_many([BASE, BAD], policy="collect")
        assert response.results == ()
        assert len(response.diagnostics) == 1
        assert response.diagnostics[0].index == 1


class TestAcceptanceBurst:
    def test_64_concurrent_clients_bit_identical_with_cache_hits(
            self, server, client):
        # 32 distinct operating points, each requested twice → 64
        # concurrent requests.
        scenarios = [{**BASE, "sd": 150.0 + 10.0 * (i % 32)}
                     for i in range(64)]
        expected = {
            s["sd"]: evaluate(Scenario(**s)).cost_per_transistor_usd
            for s in scenarios[:32]}

        def one(scenario):
            return (scenario["sd"],
                    ServeClient(server.url).evaluate(scenario)
                    .results[0].cost_per_transistor_usd)

        with ThreadPoolExecutor(max_workers=64) as pool:
            got = list(pool.map(one, scenarios))
        # Bit-identical to the sequential facade, every single request.
        assert got == [(sd, expected[sd]) for sd, _ in got]
        assert len(got) == 64
        # One more repeat after the burst, alone on the server.
        assert one(scenarios[0]) == (scenarios[0]["sd"],
                                     expected[scenarios[0]["sd"]])


class TestGridRoutes:
    def test_sweep_matches_the_facade(self, client):
        scenario = Scenario(**BASE)
        response = client.sweep(scenario, values=[150.0, 300.0, 600.0])
        result = scenario.sweep(values=[150.0, 300.0, 600.0])
        assert response.x == tuple(float(v) for v in result.x)
        assert response.cost == tuple(float(c) for c in result.cost)
        assert response.x_opt == result.x_opt
        assert response.n_masked == 0

    def test_sweep_mask_reports_masked_points(self, client):
        response = client.sweep(BAD, values=[150.0, 300.0], policy="mask")
        assert response.cost == (None, None)
        assert response.x_opt is None and response.cost_opt is None
        assert response.n_masked == 2
        assert len(response.diagnostics) == 2

    def test_pareto_front_and_knee(self, client):
        response = client.pareto(BASE, values=[150.0, 250.0, 450.0])
        assert len(response.front) >= 1
        assert response.knee is not None
        sds = [p.sd for p in response.front]
        assert sds == sorted(sds)

    def test_sensitivity_elasticities(self, client):
        response = client.sensitivity(BASE, parameters=["n_wafers"])
        assert set(response.elasticities) == {"n_wafers"}
        assert response.elasticities["n_wafers"] < 0  # more volume, cheaper

    def test_optimal_sd_matches_the_facade(self, client):
        response = client.optimal_sd(BASE)
        result = Scenario(**BASE).optimal_sd()
        assert response.sd_opt == result.sd_opt
        assert response.cost_opt == result.cost_opt
        assert response.iterations == result.iterations


class TestErrorContract:
    def test_unparseable_body_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/evaluate", data=b"{not json",
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["code"] == "DomainError"

    def test_unknown_field_is_400(self, server):
        # Bypass the client (which validates payloads before posting):
        # a raw body with an unknown field must be rejected server-side.
        body = json.dumps({"scenario": {**BASE, "ghz": 3.0}}).encode()
        request = urllib.request.Request(
            f"{server.url}/evaluate", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "ghz" in json.loads(excinfo.value.read())["message"]

    def test_unknown_route_is_404(self, server):
        request = urllib.request.Request(
            f"{server.url}/negotiate", data=b"{}", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404

    def test_convergence_failure_carries_its_code(self, client):
        # An absurdly tight bracket cannot converge: the 422 body must
        # name ConvergenceError, not a generic failure.
        with pytest.raises(ServeError) as excinfo:
            client.optimal_sd(BASE, max_iter=1)
        assert excinfo.value.status == 422
        assert excinfo.value.error.code == "ConvergenceError"

    def test_error_response_is_closed(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.optimal_sd(BASE, max_iter=1)
        assert excinfo.value.status == 422
        assert excinfo.value.__cause__.fp.closed


class TestRateLimit:
    def test_429_with_retry_after(self, registry):
        with start_server(rate=5.0, burst=2, registry=registry) as handle:
            client = ServeClient(handle.url)
            client.evaluate(BASE)
            client.evaluate(BASE)
            with pytest.raises(ServeError) as excinfo:
                client.evaluate(BASE)
            assert excinfo.value.status == 429
            assert excinfo.value.error.code == "ExecutionError"
            assert excinfo.value.error.retry_after_s > 0

    def test_retry_after_header_is_set(self, registry):
        with start_server(rate=0.5, burst=1, registry=registry) as handle:
            client = ServeClient(handle.url)
            client.evaluate(BASE)
            body = json.dumps({"scenario": BASE}).encode()
            try:
                urllib.request.urlopen(urllib.request.Request(
                    f"{handle.url}/evaluate", data=body, method="POST"),
                    timeout=10)
            except urllib.error.HTTPError as exc:
                assert exc.code == 429
                assert int(exc.headers["Retry-After"]) >= 1
            else:
                pytest.fail("expected a 429")

    def test_healthz_and_metrics_are_never_limited(self, registry):
        with start_server(rate=1.0, burst=1, registry=registry) as handle:
            client = ServeClient(handle.url)
            client.evaluate(BASE)  # drain the bucket
            for _ in range(5):
                assert client.healthz()["status"] == "ok"
                assert "serve_ratelimit_tokens" in client.metrics()

    def test_throttles_surface_in_metrics(self, registry):
        with start_server(rate=1.0, burst=1, registry=registry) as handle:
            client = ServeClient(handle.url)
            client.evaluate(BASE)
            with pytest.raises(ServeError):
                client.evaluate(BASE)
            assert 'serve_ratelimit_lifetime_total{event="throttled"} 1' \
                in client.metrics()


class TestTelemetry:
    def test_request_counter_labels_route_and_status(self, registry, client):
        obs.reset()
        with obs.enabled():
            client.evaluate(BASE)
            with pytest.raises(ServeError):
                client.evaluate(BAD)
        counters = {key: c.value
                    for key, c in obs.get_registry().counters.items()
                    if key.startswith("serve_requests_total")}
        assert counters[
            'serve_requests_total{route="evaluate",status="200"}'] == 1
        assert counters[
            'serve_requests_total{route="evaluate",status="422"}'] == 1

    def test_request_spans_feed_the_duration_sketches(self, client):
        obs.reset()
        with obs.enabled():
            client.evaluate(BASE)
        spans = [sp.name for sp in obs.get_tracer().spans]
        assert "serve.evaluate" in spans

    def test_healthz_reports_schema_contract(self, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["schemas"]["prometheus_text"] == "0.0.4"


class TestCliEntryPoint:
    def test_main_serves_until_stopped(self, capsys):
        from repro.serve.__main__ import main

        ready = threading.Event()
        stop = threading.Event()
        result = {}

        def run():
            result["code"] = main(["--port", "0", "--history="],
                                  ready=ready, stop=stop)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(timeout=10)
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_main_records_a_run_with_history(self, capsys, tmp_path):
        from repro.obs import HistoryStore
        from repro.serve.__main__ import main

        path = tmp_path / "runs.sqlite"
        ready = threading.Event()
        stop = threading.Event()
        stop.set()  # serve, then shut down at once
        assert main(["--port", "0", "--history", str(path)],
                    ready=ready, stop=stop) == 0
        assert ready.is_set()
        assert f"-> {path}" in capsys.readouterr().out
        with HistoryStore(path) as store:
            assert [run.command for run in store.runs()] == ["repro.serve"]

    def test_bad_flag_exits_2(self, capsys):
        from repro.serve.__main__ import main

        assert main(["--rate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_argument_exits_2(self, capsys):
        from repro.serve.__main__ import main

        assert main(["--frobnicate"]) == 2
