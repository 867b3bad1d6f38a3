#!/usr/bin/env python3
"""Measure where the engine's process pool starts to beat in-process evaluation.

For each grid size it times one eq.-(4) ``s_d`` sweep (``Eq4SdKernel``,
Figure 4's operating point, RAISE policy, memo cache off) three ways
and prints the 10th-percentile wall time of each, in milliseconds:

* ``pool`` — ``evaluate_grid`` with the pool threshold lowered to its
  minimum, i.e. the chunked, supervised process-pool path a caller
  opts into with ``engine.configure_parallel(threshold=...)``;
  ``chunks`` is how many chunks that path split the grid into;
* ``blocked`` — ``evaluate_grid`` with the pool disabled: the
  in-process loop over 64k-point blocks;
* ``unblocked`` — one ``kernel.batch`` call over the whole grid.

The pool is started and warmed before anything is timed. The
``winner`` column compares ``pool`` with ``blocked``; the smallest
size the pool wins at is the crossover that
``repro.engine.parallel._DEFAULT_THRESHOLD`` should sit at.

Usage:  python tools/pool_crossover.py
        python tools/pool_crossover.py --sizes 100000 1000000 --repeats 15
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cost import PAPER_FIGURE4_MODEL  # noqa: E402
from repro.engine import configure_parallel, evaluate_grid  # noqa: E402
from repro.engine import parallel  # noqa: E402
from repro.engine.kernels import Eq4SdKernel  # noqa: E402
from repro.optimize import sd_grid  # noqa: E402

#: Figure 4(a)'s operating point.
FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5_000,
             yield_fraction=0.4, cost_per_cm2=8.0)

COLUMNS = ("points", "pool_ms", "chunks", "blocked_ms", "unblocked_ms",
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
        return evaluate_grid(kernel, grid, where="tools.pool_crossover",
                             cache=False)

    configure_parallel(threshold=2, enabled=True)
    chunks = run().chunks  # starts and warms the pool
    pool = p10_ms(run, repeats)
    configure_parallel(enabled=False)
    blocked = p10_ms(run, repeats)
    unblocked = p10_ms(lambda: kernel.batch(grid), repeats)
    winner = "pool" if chunks > 1 and pool < blocked else "blocked"
    return (size, pool, chunks, blocked, unblocked, winner)


def format_table(rows) -> str:
    """The rows as a fixed-width text table under a ``COLUMNS`` header."""
    lines = ["{:>10} {:>9} {:>6} {:>10} {:>12} {:>7}".format(*COLUMNS)]
    for size, pool, chunks, blocked, unblocked, winner in rows:
        lines.append(f"{size:>10} {pool:>9.1f} {chunks:>6} {blocked:>10.1f} "
                     f"{unblocked:>12.1f} {winner:>7}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[100_000, 1_000_000, 10_000_000],
                        help="grid sizes to measure (points)")
    parser.add_argument("--repeats", type=int, default=15,
                        help="timed calls per size and path")
    args = parser.parse_args(argv)
    saved = parallel.settings()
    try:
        rows = [measure(size, args.repeats) for size in args.sizes]
    finally:
        configure_parallel(threshold=saved["threshold"],
                           enabled=saved["enabled"])
        parallel.shutdown()
    workers = saved["max_workers"] or min(4, os.cpu_count() or 1)
    print(f"# Eq4SdKernel, p10 of {args.repeats} runs; "
          f"{os.cpu_count()} CPUs, pool of {workers} workers; "
          f"default threshold {saved['threshold']:,}")
    print(format_table(rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
