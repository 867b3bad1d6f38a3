"""Experiment ``engine`` — vectorized vs scalar evaluation of Figure 4.

Times the same eq.-(4) cost curve — the Figure-4 sweep grid — two ways:

* **scalar**: one model call per grid point, the pre-engine hot loop;
* **vectorized**: one :func:`repro.engine.evaluate_grid` batch call.

The reproduction contract is the engine's reason to exist: the
vectorized path must be at least 10× faster on the same grid while
agreeing with the scalar path to ≤1e-12 relative error.
"""

import time

import numpy as np

from repro.cost import PAPER_FIGURE4_MODEL
from repro.engine import evaluate_grid
from repro.engine.kernels import Eq4SdKernel
from repro.optimize import sd_grid

FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5_000,
             yield_fraction=0.4, cost_per_cm2=8.0)
#: The Figure-4 sweep grid (same spec as ``bench_figure4.GRID``).
GRID = sd_grid(100.0, sd_max=1200.0, n=240)
_REPEATS = 5


def _kernel() -> Eq4SdKernel:
    return Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A)


def _best_of(fn) -> float:
    """Minimum wall time over ``_REPEATS`` runs (first run warms up)."""
    best = float("inf")
    for _ in range(_REPEATS + 1):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def regenerate_engine():
    """Scalar vs vectorized wall times + values on the Figure-4 grid."""
    kernel = _kernel()
    scalar_values = np.array([kernel.point(float(x)) for x in GRID])
    vector_values = evaluate_grid(
        kernel, GRID, where="bench.engine", equation="4",
        parameter="sd").values
    t_scalar = _best_of(lambda: [kernel.point(float(x)) for x in GRID])
    t_vector = _best_of(lambda: evaluate_grid(
        kernel, GRID, where="bench.engine", equation="4", parameter="sd"))
    return t_scalar, t_vector, scalar_values, vector_values


def test_engine(benchmark, save_artifact):
    t_scalar, t_vector, scalar_values, vector_values = benchmark(
        regenerate_engine)
    speedup = t_scalar / t_vector
    parity = float(np.max(np.abs(vector_values - scalar_values)
                          / np.abs(scalar_values)))

    lines = [
        "engine: vectorized vs scalar eq.-(4) sweep "
        f"({GRID.size} points, best of {_REPEATS})",
        f"  scalar     {t_scalar * 1e3:8.3f} ms  "
        f"({t_scalar / GRID.size * 1e6:.1f} us/point)",
        f"  vectorized {t_vector * 1e3:8.3f} ms  "
        f"({t_vector / GRID.size * 1e6:.1f} us/point)",
        f"  speedup    {speedup:8.1f}x",
        f"  max relative divergence: {parity:.3e}",
    ]
    save_artifact("engine", "\n".join(lines))

    # Reproduction contract.
    assert parity <= 1e-12
    assert speedup >= 10.0
