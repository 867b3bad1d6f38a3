#!/usr/bin/env python3
"""Measure where the engine's block threads beat one thread.

For each grid size it times one eq.-(4) ``s_d`` sweep (``Eq4SdKernel``,
Figure 4's operating point, RAISE policy) three ways
and prints the 10th-percentile wall time of each, in milliseconds:

* ``threads`` — ``evaluate_grid`` with its 64k-point blocks spread over
  ``workers`` threads, whatever the grid size;
* ``blocked`` — ``evaluate_grid`` with parallelism disabled: the same
  blocks on the calling thread alone;
* ``unblocked`` — one ``kernel.batch`` call over the whole grid.

The threads are started and warmed before anything is timed.
``winner`` is the faster of ``threads`` and ``blocked``. The smallest
size from which ``threads`` beats ``blocked`` is the one
``repro.engine.core._THREADS_FROM`` should sit at.

Usage:  python tools/thread_crossover.py
        python tools/thread_crossover.py --sizes 100000 1000000 --repeats 15
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cost import PAPER_FIGURE4_MODEL  # noqa: E402
from repro.engine import configure_parallel, evaluate_grid  # noqa: E402
from repro.engine import core, parallel_settings  # noqa: E402
from repro.engine.kernels import Eq4SdKernel  # noqa: E402
from repro.optimize import sd_grid  # noqa: E402

#: Figure 4(a)'s operating point.
FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5_000,
             yield_fraction=0.4, cost_per_cm2=8.0)

COLUMNS = ("points", "threads_ms", "workers", "blocked_ms", "unblocked_ms",
           "winner")


def p10_ms(fn, repeats: int) -> float:
    """10th-percentile wall time of ``fn()`` over ``repeats`` calls (ms)."""
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        fn()
        times.append(time.perf_counter() - began)
    times.sort()
    return times[(len(times) - 1) // 10] * 1e3


def measure(size: int, repeats: int) -> tuple:
    """One table row for a grid of ``size`` points."""
    kernel = Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)
    grid = sd_grid(PAPER_FIGURE4_MODEL.design_model.sd0, sd_max=5000.0,
                   n=size)

    def run():
        return evaluate_grid(kernel, grid, where="tools.thread_crossover")

    configure_parallel(enabled=True)
    cut_over = core._THREADS_FROM
    core._THREADS_FROM = 0  # thread every size, to find the crossover
    try:
        workers = run().workers  # starts and warms the threads
        threads = p10_ms(run, repeats)
    finally:
        core._THREADS_FROM = cut_over
    configure_parallel(enabled=False)
    blocked = p10_ms(run, repeats)
    unblocked = p10_ms(lambda: kernel.batch(grid), repeats)
    winner = "threads" if workers > 1 and threads < blocked else "blocked"
    return (size, threads, workers, blocked, unblocked, winner)


def format_table(rows) -> str:
    """The rows as a fixed-width text table under a ``COLUMNS`` header."""
    lines = ["{:>10} {:>10} {:>7} {:>10} {:>12} {:>7}".format(*COLUMNS)]
    for size, threads, workers, blocked, unblocked, winner in rows:
        lines.append(f"{size:>10} {threads:>10.2f} {workers:>7} "
                     f"{blocked:>10.2f} {unblocked:>12.1f} {winner:>7}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[100_000, 1_000_000, 10_000_000],
                        help="grid sizes to measure (points)")
    parser.add_argument("--repeats", type=int, default=15,
                        help="timed calls per size and path")
    args = parser.parse_args(argv)
    saved = parallel_settings()
    try:
        rows = [measure(size, args.repeats) for size in args.sizes]
    finally:
        configure_parallel(enabled=saved["enabled"])
    print(f"# Eq4SdKernel, p10 of {args.repeats} runs; "
          f"{core.block_threads()} block threads; "
          f"threads from {core._THREADS_FROM:,} points")
    print(format_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
