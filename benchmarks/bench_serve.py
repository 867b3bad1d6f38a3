"""Experiment ``serve`` — throughput and tail latency of the HTTP layer.

An in-process load generator drives a real ``repro.serve`` server over
loopback HTTP: 16 concurrent clients issue single-point ``/evaluate``
requests drawn from a small pool of operating points, so the run
exercises the whole traffic path — HTTP framing, JSON parse, pricing on
the event loop, and response rendering — rather than the bare kernel. Latencies land in a :class:`repro.obs.DurationSketch`, the
same log-bucketed estimator the span pipeline uses, so the reported
p50/p99 match what ``/metrics`` would expose for a production scrape.

The serving contract gated here is intentionally loose enough for a
noisy CI box and tight enough to catch structural regressions (a
serialized handler, a stalled loop, drifted arithmetic):

* sustained throughput of at least 25 requests/second;
* p99 request latency at or under 500 ms;
* every answer equals ``Scenario.evaluate`` of its point, bit for bit.
"""

import json
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from repro.api import Scenario
from repro.obs import DurationSketch
from repro.serve import start_server

#: Concurrent client threads.
CLIENTS = 16
#: Total requests issued per run.
REQUESTS = 200
#: Distinct operating points; each is requested REQUESTS/POINTS times.
POINTS = 25

BASE = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5_000.0,
            yield_fraction=0.4, cost_per_cm2=8.0)

#: Serving contract floors/ceilings (see module docstring).
MIN_THROUGHPUT_RPS = 25.0
MAX_P99_S = 0.5


def _points() -> list[dict]:
    return [{**BASE, "sd": 150.0 + 10.0 * (i % POINTS)}
            for i in range(REQUESTS)]


def regenerate_serve():
    """Drive the load; return (throughput_rps, sketch, answers).

    ``answers`` pairs each request's point with its answered
    ``(cost_per_transistor_usd, area_cm2)``.
    """
    with start_server() as handle:
        url = f"{handle.url}/evaluate"
        sketch = DurationSketch("serve.evaluate")

        def one(point: dict) -> tuple:
            request = urllib.request.Request(
                url, data=json.dumps({"scenario": point}).encode(),
                method="POST", headers={"Content-Type": "application/json"})
            start = time.perf_counter()
            with urllib.request.urlopen(request, timeout=30) as reply:
                body = reply.read()
            sketch.observe(time.perf_counter() - start)
            (result,) = json.loads(body)["results"]
            return point, (result["cost_per_transistor_usd"],
                           result["area_cm2"])

        points = _points()
        # Warm up the server and the client's connection path.
        for point in points[:POINTS]:
            one(point)
        sketch = DurationSketch("serve.evaluate")

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
            answers = list(pool.map(one, points))
        elapsed = time.perf_counter() - start
    return REQUESTS / elapsed, sketch, answers


def _mismatches(answers) -> int:
    """Answers that differ from ``Scenario.evaluate`` in any bit."""
    wrong = 0
    for point, got in answers:
        expected = Scenario(**point).evaluate()
        wrong += got != (expected.cost_per_transistor_usd, expected.area_cm2)
    return wrong


def test_serve(benchmark, save_artifact):
    throughput, sketch, answers = benchmark(regenerate_serve)
    quantiles = sketch.percentiles()
    wrong = _mismatches(answers)

    lines = [
        f"serve: {REQUESTS} /evaluate requests, {CLIENTS} concurrent "
        f"clients, {POINTS} distinct points",
        f"  throughput {throughput:10.1f} req/s "
        f"(floor {MIN_THROUGHPUT_RPS:.0f})",
        f"  p50        {quantiles['p50'] * 1e3:10.2f} ms",
        f"  p90        {quantiles['p90'] * 1e3:10.2f} ms",
        f"  p99        {quantiles['p99'] * 1e3:10.2f} ms "
        f"(ceiling {MAX_P99_S * 1e3:.0f} ms)",
        f"  answers != Scenario.evaluate: {wrong}",
    ]
    save_artifact("serve", "\n".join(lines))

    # Serving contract.
    assert throughput >= MIN_THROUGHPUT_RPS
    assert quantiles["p99"] <= MAX_P99_S
    assert wrong == 0
