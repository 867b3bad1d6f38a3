"""Statistical benchmarking and the performance-regression gate.

``python -m repro.bench`` runs every ``benchmarks/bench_*.py``
regenerate function with warmup + N repeats, summarises each bench as
min/median/MAD (robust statistics — one scheduler stall cannot poison
them), and writes schema-versioned ``BENCH_<timestamp>.json`` reports
plus the committed ``benchmarks/baseline.json`` reference. The gate —
``python -m repro.bench --compare benchmarks/baseline.json`` — judges
the current run against a baseline with a MAD-derived noise threshold
and exits nonzero on a real regression, never on timer jitter.

Programmatic use mirrors the CLI::

    from repro import bench

    cases = bench.discover()
    results = bench.run_suite(cases, repeats=5, warmup=1)
    report = bench.make_report({r.name: r.to_row() for r in results},
                               repeats=5, warmup=1)
    verdicts = bench.compare_reports(bench.load_report("baseline.json"),
                                     report)

See ``docs/observability.md`` § "Performance observability" for the
baseline workflow and the flamegraph/hot-span tooling this builds on.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "compare": (
        "IMPROVEMENT", "MISSING", "NEW", "REGRESSION", "WITHIN_NOISE",
        "BenchComparison", "BenchVerdict", "compare_reports",
    ),
    "runner": (
        "BenchCase", "BenchResult", "default_bench_dir", "discover",
        "run_case", "run_suite",
    ),
    "schema": (
        "SCHEMA_ID", "bench_environment", "load_report", "make_report",
        "validate_report", "write_report",
    ),
})

__all__ = [
    # runner
    "BenchCase",
    "BenchResult",
    "default_bench_dir",
    "discover",
    "run_case",
    "run_suite",
    # schema
    "SCHEMA_ID",
    "bench_environment",
    "load_report",
    "make_report",
    "validate_report",
    "write_report",
    # compare
    "REGRESSION",
    "IMPROVEMENT",
    "WITHIN_NOISE",
    "NEW",
    "MISSING",
    "BenchComparison",
    "BenchVerdict",
    "compare_reports",
]
