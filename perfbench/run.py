"""End-to-end benchmark of the cost model: serving, analysis and a 1M-point sweep.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones: ``p10_ms``, the 10th percentile of
one operation's latency over the run (``common.end_to_end`` says why
not the median), ``miss_p10_ms``, the same over the operations on an
input sent for the first time, and ``setup_s``, the median over 5 fresh processes of
the time from process start to the first completed operation (for
``serve``: to the first ``/evaluate`` answer). With ``--trace 1`` a separate run, with
the program's tracing on, reports the per-layer split named in
``common.PER_LAYER_UNITS``; ``worker.py`` and ``_serve_layers`` say how
each is derived.

Every caller is closed-loop (the next operation starts when the
previous one returns), and the inputs come from ``--seed``:

``serve``
    A fresh ``python -m repro.serve`` process, driven over loopback
    HTTP with single-point ``POST /evaluate`` requests by 16 client
    threads, in ``benchmarks/bench_serve.py``'s pattern: rounds of 200
    requests over a pool of 25 points, a fresh pool each round. The
    first request for a point misses the shared memo cache and goes
    through the micro-batcher, which coalesces concurrent misses into
    one engine call; ``miss_p10_ms`` times these. Every answer is
    compared bit for bit with an in-process ``repro.api.evaluate_many``.
``analysis``
    One thread in a fresh process calls ``Scenario.optimal_sd``,
    ``.pareto``, ``.sweep("n_wafers")`` and ``.sensitivity`` for one
    new operating point per operation: the scalar optimiser and small
    grids, far below the process-pool threshold.
``sweep``
    One ``MASK``-policy ``Scenario.sweep("sd")`` over a fixed 1M-point
    grid per operation, a new operating point each time, so the engine
    takes the chunked process-pool path and never uses its memo cache.

``analysis`` and ``sweep`` run on one thread of ``worker.py``.
"""

from __future__ import annotations

import argparse
import http.client
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    SETUP_SPAWNS,
    end_to_end,
    result_line,
    scenario_fields,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seconds any single child may take to become ready or to finish.
CHILD_TIMEOUT_S = 120.0

#: The ``serve`` traffic is ``benchmarks/bench_serve.py``'s: this many
#: concurrent closed-loop clients, and rounds of ``SERVE_ROUND`` requests
#: over a pool of ``SERVE_POOL`` points, request ``i`` of a round sending
#: point ``i % SERVE_POOL``. Each round draws a fresh pool, so the first
#: ``SERVE_POOL`` requests of a round are new points (cache misses) and
#: the other 175 of 200 repeat them (a 87.5 % designed hit share).
SERVE_CLIENTS = 16
SERVE_ROUND = 200
SERVE_POOL = 25


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("REPRO_HISTORY", None)
    return env


def _stop(proc: subprocess.Popen, sig=signal.SIGTERM) -> None:
    """Ask a child to exit, wait for it, and kill it if it does not."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


# -- in-process workloads (analysis, sweep): run in perfbench/worker.py ------

def _spawn_worker(args, mode: str):
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), args.workload,
         str(args.seed), str(args.seconds), str(args.trace), mode],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - began
    if line.strip() != "ready":
        _stop(proc)
        raise RuntimeError(f"{args.workload} worker did not become ready")
    return proc, setup


def run_worker(args) -> str:
    setups = []
    if not args.trace:
        for _ in range(SETUP_SPAWNS - 1):
            proc, setup = _spawn_worker(args, "setup")
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            finally:
                _stop(proc)
            setups.append(setup)
    proc, setup = _spawn_worker(args, "run")
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=args.seconds + CHILD_TIMEOUT_S)
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    if args.trace:
        values, units = report["layers"], PER_LAYER_UNITS
    else:
        values = end_to_end(report["latencies_s"], report["latencies_s"],
                            setups)
        units = END_TO_END_UNITS
    return result_line(report["correct"], report["attempted"],
                       report["failed"], values, units)


# -- serve: a fresh server process driven over HTTP ------------------------

class ServeTraffic:
    """The request bodies of the ``serve`` workload, one pool per round,
    made on first use from ``--seed`` and the round number."""

    def __init__(self, seed: int):
        self.seed = seed
        self.pools: dict = {}
        self.lock = threading.Lock()

    def pool(self, round_no: int) -> list:
        with self.lock:
            if round_no not in self.pools:
                rng = random.Random(f"{self.seed}/{round_no}")
                points = [dict(scenario_fields(rng),
                               sd=rng.uniform(150.0, 1200.0))
                          for _ in range(SERVE_POOL)]
                self.pools[round_no] = [
                    (p, json.dumps({"scenario": p}).encode()) for p in points]
            return self.pools[round_no]

    def request(self, n: int):
        """The ``n``-th request: ``(point key, point, body, first send)``.
        Round -1 holds the points the set-up requests send."""
        round_no, i = divmod(n, SERVE_ROUND)
        key = (round_no, i % SERVE_POOL)
        point, body = self.pool(round_no)[key[1]]
        return key, point, body, i < SERVE_POOL


def _post(port: int, body: bytes):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", "/evaluate", body,
                     {"Content-Type": "application/json"})
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


def _metrics(port: int) -> dict:
    """The server's ``/metrics`` samples as ``{(name, labels): value}``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    from repro.obs import parse_prometheus
    return {(s["name"], tuple(sorted(s["labels"].items()))): s["value"]
            for s in parse_prometheus(text)}


def _start_server(first_body: bytes):
    """Start ``python -m repro.serve``; return (process, port, seconds to first answer)."""
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0", "--history="],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        port = int(line.split("listening on http://", 1)[1].split()[0]
                   .rsplit(":", 1)[1])
        status, _ = _post(port, first_body)
        setup = time.perf_counter() - began
        if status != 200:
            raise RuntimeError(f"first /evaluate answered {status}")
    except BaseException:
        _stop(proc, signal.SIGINT)
        raise
    return proc, port, setup


def _drive(port: int, traffic: ServeTraffic, seconds: float) -> list:
    """Closed-loop load from ``SERVE_CLIENTS`` threads sharing one request
    sequence: ``(key, point, latency_s, first send, status, reply)`` per
    request."""
    samples = []
    counter = itertools.count()
    deadline = time.perf_counter() + seconds

    def client():
        mine = []
        while time.perf_counter() < deadline:
            key, point, body, first = traffic.request(next(counter))
            began = time.perf_counter()
            try:
                status, reply = _post(port, body)
            except OSError as exc:
                status, reply = 0, repr(exc).encode()
            mine.append((key, point, time.perf_counter() - began, first,
                         status, reply))
        samples.extend(mine)

    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def _serve_correct(samples) -> bool:
    """Every 200 answer equals the in-process facade bit for bit."""
    from repro.api import Scenario, evaluate_many
    points = {key: point for key, point, _, _, status, _ in samples
              if status == 200}
    if not points:
        return False
    keys = sorted(points)
    expected = evaluate_many([Scenario(**points[k]) for k in keys])
    want = {k: (r.cost_per_transistor_usd, r.area_cm2)
            for k, r in zip(keys, expected)}
    for key, _, _, _, status, reply in samples:
        if status != 200:
            continue
        (point,) = json.loads(reply)["results"]
        got = (point["cost_per_transistor_usd"], point["area_cm2"])
        if not point["ok"] or got != want[key]:
            return False
    return True


def _serve_layers(before: dict, after: dict, round_trip_s: float,
                  requests: int) -> dict:
    """Per-request split from the server's ``/metrics`` deltas over the run.

    ``untraced_ms`` is the client's round trip minus the ``serve.evaluate``
    span (connection, HTTP and JSON handling outside the span);
    ``above_engine_ms`` is that span minus ``engine.evaluate_grid`` time
    (cache lookup, micro-batch wait, ``repro.api``).
    """
    def delta(name, **labels):
        key = (name, tuple(sorted(labels.items())))
        return after.get(key, 0.0) - before.get(key, 0.0)

    def span_sum(name):
        return delta("repro_span_duration_seconds_sum", span=name)

    handler_s = span_sum("serve.evaluate")
    engine_s = span_sum("engine.evaluate_grid")
    calls = delta("engine_dispatch_total", backend="numpy", policy="raise")
    spans = sum(after[k] - before.get(k, 0.0) for k in after
                if k[0] == "repro_span_duration_seconds_count")
    return {
        "untraced_ms": (round_trip_s - handler_s) / requests * 1e3,
        "above_engine_ms": (handler_s - engine_s) / requests * 1e3,
        "engine_ms": engine_s / requests * 1e3,
        "engine_calls": calls / requests,
        "engine_points": delta("engine_points_total", backend="numpy")
        / requests,
        "chunks_per_call": delta("engine_chunks_total", backend="numpy")
        / max(1.0, calls),
        "spans_per_op": spans / requests,
    }


def run_serve(args) -> str:
    traffic = ServeTraffic(args.seed)
    _, _, first_body, _ = traffic.request(-SERVE_ROUND)
    setups = []
    spawns = 1 if args.trace else SETUP_SPAWNS
    for n in range(spawns):
        proc, port, setup = _start_server(first_body)
        setups.append(setup)
        if n < spawns - 1:
            _stop(proc, signal.SIGINT)
    try:
        before = _metrics(port) if args.trace else {}
        samples = _drive(port, traffic, args.seconds)
        after = _metrics(port) if args.trace else {}
    finally:
        _stop(proc, signal.SIGINT)
    if proc.returncode != 0:
        raise RuntimeError(f"server exited {proc.returncode}")
    ok = [s for s in samples if s[4] == 200]
    correct = _serve_correct(samples)
    if args.trace:
        values = _serve_layers(before, after, sum(s[2] for s in ok), len(ok))
        units = PER_LAYER_UNITS
    else:
        values = end_to_end([s[2] for s in ok], [s[2] for s in ok if s[3]],
                            setups)
        units = END_TO_END_UNITS
    return result_line(correct, len(samples), len(samples) - len(ok),
                       values, units)


RUNNERS = {"serve": run_serve, "analysis": run_worker, "sweep": run_worker}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(RUNNERS[args.workload](args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
