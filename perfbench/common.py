"""Inputs, statistics and the result format shared by ``run.py`` and ``worker.py``.

Every workload draws its operating points from :func:`scenario_fields`,
seeded by ``--seed``: the same seed gives the same inputs. The ranges
keep every point feasible under eq. (4) (``s_d`` well above ``s_d0``,
``Y`` at most 0.9 so a +5 % sensitivity step stays below 1), so no
operation is expected to fail; a failure is counted, never skipped.
"""

from __future__ import annotations

import json
import math
import statistics

#: Fresh processes started per run to time set-up; ``setup_s`` is their median.
SETUP_SPAWNS = 5

#: The end-to-end metric names and units every workload reports with ``--trace 0``.
END_TO_END_UNITS = {
    "p10_ms": "ms",
    "miss_p10_ms": "ms",
    "setup_s": "s",
}

#: The per-layer metric names and units every workload reports with ``--trace 1``.
PER_LAYER_UNITS = {
    "untraced_ms": "ms",
    "above_engine_ms": "ms",
    "engine_ms": "ms",
    "engine_calls": "count",
    "engine_points": "count",
    "chunks_per_call": "count",
    "spans_per_op": "count",
}


def scenario_fields(rng) -> dict:
    """One operating point (all fields but ``sd``) drawn from ``rng``."""
    return {
        "n_transistors": 10.0 ** rng.uniform(6.3, 7.7),
        "feature_um": rng.uniform(0.13, 0.25),
        "n_wafers": 10.0 ** rng.uniform(3.3, 5.0),
        "yield_fraction": rng.uniform(0.3, 0.9),
        "cost_per_cm2": rng.uniform(5.0, 12.0),
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(latencies_s, miss_latencies_s, setups_s) -> dict:
    """``p10_ms``, the 10th percentile of the measured operations' latency,
    ``miss_p10_ms``, the same over the operations whose input was sent
    for the first time (in ``analysis`` and ``sweep`` that is every
    operation), and ``setup_s``, the median set-up time.

    A low percentile stands in for the median and the tail: on a shared
    2-vCPU VM the CPU speed was seen to drop by up to 1.8x for tens of
    seconds at a time, which moved the median of a 30 s run by whatever
    share of it ran slow (28 % spread over ten runs of ``analysis``) and
    the 90th percentile of ``sweep`` by 26 % between two sets of runs,
    while the fastest tenth stayed put unless almost all of a run was slow.
    """
    return {"p10_ms": percentile(latencies_s, 10.0) * 1e3,
            "miss_p10_ms": percentile(miss_latencies_s, 10.0) * 1e3,
            "setup_s": statistics.median(setups_s)}


def result_line(correct: bool, attempted: int, failed: int, values: dict,
                units: dict) -> str:
    """The one-line JSON result; ``values`` must name every metric in ``units``."""
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
