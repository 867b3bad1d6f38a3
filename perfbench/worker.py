"""Fresh child process for the in-process workloads, ``analysis`` and ``sweep``.

Usage (with the checkout's ``src`` on ``PYTHONPATH``)::

    python perfbench/worker.py WORKLOAD SEED SECONDS TRACE MODE

The worker imports the package, builds its inputs and completes one
operation, then prints ``ready``; ``run.py`` times set-up from process
start to that line. With ``MODE=setup`` it exits there. With
``MODE=run`` it runs operations back to back on this one thread for
``SECONDS``, checks every result after the window and prints one JSON
line: ``{"correct", "attempted", "failed", "latencies_s"}``
plus, with ``TRACE=1``, a ``layers`` dict of per-layer metrics.

With ``TRACE=1`` observability is on and each operation runs inside a
``bench.op`` span; the program's own spans under it give the split:

* ``untraced_ms``: ``bench.op`` self time, the part of the operation no
  program span covers (such as ``SweepResult.argmin``);
* ``engine_ms``: time inside ``engine.evaluate_grid`` spans;
* ``above_engine_ms``: the rest of the program's spans (``repro.api``
  and ``repro.optimize`` above the engine).
"""

from __future__ import annotations

import json
import math
import random
import sys
import time

from common import scenario_fields

#: Points in one ``sweep`` operation.
SWEEP_POINTS = 1_000_000
#: Grid indices each sweep result is checked at against the scalar path.
SWEEP_CHECKS = 8
#: Relative tolerance between the batched and scalar evaluation paths.
RTOL = 1e-12


def _scenario(rng):
    from repro.api import Scenario
    return Scenario(**scenario_fields(rng))


def _close(a: float, b: float, rtol: float = RTOL) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


# -- analysis: the Scenario analysis methods, one scenario per operation ----

def _analysis_setup(seed: int):
    rng = random.Random(seed)
    return lambda: _scenario(rng)


def _analysis_op(scenario):
    optimum = scenario.optimal_sd()
    front = scenario.pareto()
    volume = scenario.sweep("n_wafers")
    elasticities = scenario.sensitivity(
        parameters=("n_wafers", "yield_fraction"))
    return (scenario, optimum.sd_opt, optimum.cost_opt,
            min(p.transistor_cost_usd for p in front), len(front),
            [float(c) for c in volume.cost], list(elasticities.values()))


def _analysis_check(record) -> bool:
    """The optimum is a minimum the facade reproduces; the rest agrees."""
    scenario, sd_opt, cost_opt, front_min, front_len, volume, elastic = record
    at = scenario.replace(sd=sd_opt).evaluate().cost_per_transistor_usd
    left = scenario.replace(sd=sd_opt * 0.99).evaluate().cost_per_transistor_usd
    right = scenario.replace(sd=sd_opt * 1.01).evaluate().cost_per_transistor_usd
    return (_close(at, cost_opt, 1e-9) and left > at and right > at
            and front_len > 0 and front_min >= cost_opt * (1.0 - 1e-9)
            and all(b < a for a, b in zip(volume, volume[1:]))
            and all(math.isfinite(e) for e in elastic))


# -- sweep: one 1M-point s_d sweep per operation ----------------------------

def _sweep_setup(seed: int):
    from repro.optimize import sd_grid
    rng = random.Random(seed)
    grid = sd_grid(100.0, sd_max=5000.0, n=SWEEP_POINTS)
    checks = sorted(random.Random(seed + 1).sample(range(SWEEP_POINTS),
                                                   SWEEP_CHECKS))
    return lambda: (_scenario(rng), grid, checks)


def _sweep_op(item):
    """One ``MASK``-policy sweep. The engine never memo-caches ``MASK``
    evaluations, so the traced and untraced runs do the same work (with
    ``RAISE`` the untraced run would hash and copy the 8 MB grid into
    the cache on every sweep, and the traced run would not)."""
    from repro.robust import ErrorPolicy
    scenario, grid, checks = item
    result = scenario.sweep("sd", values=grid, policy=ErrorPolicy.MASK)
    samples = [(result.x_opt, result.cost_opt)]
    samples += [(float(grid[i]), float(result.cost[i])) for i in checks]
    return scenario, samples


def _sweep_check(record) -> bool:
    """Sampled points, the optimum first, match the single-scenario path,
    and none is cheaper than the optimum."""
    scenario, samples = record
    cost_opt = samples[0][1]
    for sd, cost in samples:
        scalar = scenario.replace(sd=sd).evaluate().cost_per_transistor_usd
        if not _close(cost, scalar) or cost < cost_opt:
            return False
    return True


WORKLOADS = {
    "analysis": (_analysis_setup, _analysis_op, _analysis_check),
    "sweep": (_sweep_setup, _sweep_op, _sweep_check),
}


# -- per-layer split from the program's spans -------------------------------

class LayerTotals:
    """Per-layer sums over traced operations, harvested one op at a time."""

    def __init__(self):
        self.ops = 0
        self.untraced = self.above = self.engine = 0.0
        self.calls = self.points = self.chunks = self.spans = 0

    def harvest(self, obs) -> None:
        """Fold the spans of the operation just finished, then clear them."""
        spans = list(obs.get_tracer().spans)
        obs.reset()
        root = next(s for s in spans if s.name == "bench.op")
        engine = [s for s in spans if s.name == "engine.evaluate_grid"]
        engine_s = sum(s.duration for s in engine)
        self.ops += 1
        self.untraced += root.self_time
        self.engine += engine_s
        self.above += root.duration - root.self_time - engine_s
        self.calls += len(engine)
        self.points += sum(int(s.attrs.get("points", 0)) for s in engine)
        self.chunks += sum(int(s.attrs.get("chunks", 1)) for s in engine)
        self.spans += len(spans) - 1

    def metrics(self) -> dict:
        """Per-operation means, keyed like ``common.PER_LAYER_UNITS``."""
        ops = max(1, self.ops)
        return {
            "untraced_ms": self.untraced / ops * 1e3,
            "above_engine_ms": self.above / ops * 1e3,
            "engine_ms": self.engine / ops * 1e3,
            "engine_calls": self.calls / ops,
            "engine_points": self.points / ops,
            "chunks_per_call": self.chunks / max(1, self.calls),
            "spans_per_op": self.spans / ops,
        }


def main(argv) -> int:
    workload, seed, seconds, trace, mode = argv
    setup, op, check = WORKLOADS[workload]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    from repro import obs

    next_input = setup(seed)
    op(next_input())
    print("ready", flush=True)
    if mode == "setup":
        return 0

    latencies, records, failed = [], [], 0
    totals = LayerTotals()
    if trace:
        obs.enable()
        obs.reset()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        item = next_input()
        began = time.perf_counter()
        try:
            with obs.span("bench.op"):
                record = op(item)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            print(f"operation failed: {exc!r}", file=sys.stderr)
            failed += 1
            obs.reset()
            continue
        latencies.append(time.perf_counter() - began)
        records.append(record)
        if trace:
            totals.harvest(obs)
    obs.disable()

    correct = bool(records) and all(check(r) for r in records)
    out = {"correct": correct, "attempted": len(records) + failed,
           "failed": failed, "latencies_s": latencies}
    if trace:
        out["layers"] = totals.metrics()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
