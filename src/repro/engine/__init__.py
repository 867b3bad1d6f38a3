"""repro.engine — vectorized batch-evaluation backend for the model family.

The engine evaluates the cost/yield/density models of eqs. (1)–(7)
over whole parameter grids in single vectorized calls instead of
python-level per-point loops. It is the dispatch layer behind
``optimize.sweep``, ``optimize.pareto``, ``roadmap`` scans, and the
:mod:`repro.api` Scenario facade:

* :mod:`repro.engine.kernels` — frozen adapters binding one model plus
  its fixed operating point; each knows a vectorized ``batch``, an
  exact legacy scalar ``point``, and a dependency-free ``point_py``;
* :mod:`repro.engine.core` — :func:`evaluate_grid` (policy-preserving
  dispatch over 64k-point blocks, spread across threads for large
  grids; :func:`configure_parallel` caps the threads) and
  :func:`map_scalar` (the scalar-sweep loop);
* :mod:`repro.engine.cache` — content-addressed memo cache for
  repeated grid evaluations;
* :mod:`repro.engine.backend` — ``auto``/``numpy``/``python`` mode
  selection (:func:`disable` forces the pure-python fallback);
* :mod:`repro.engine.pykernels` — stdlib-only scalar kernels used when
  NumPy is absent or the python backend is forced.

Typical use goes through the re-exports::

    from repro import engine
    with engine.using("python"):
        ...  # dispatches run the pure-python kernels here
    engine.cache_stats().hit_rate
"""

from __future__ import annotations

from . import backend, cache, core, kernels, pykernels
from .backend import (
    BACKENDS,
    current_backend,
    disable,
    enable,
    numpy_available,
    resolved_backend,
    set_backend,
    using,
)
from .cache import CacheStats, GridCache
from .cache import clear as clear_cache
from .cache import configure as configure_cache
from .cache import stats as cache_stats
from .core import (
    GridEvaluation,
    configure_parallel,
    evaluate_grid,
    map_scalar,
    parallel_settings,
)

__all__ = [
    "BACKENDS",
    "CacheStats",
    "GridCache",
    "GridEvaluation",
    "backend",
    "cache",
    "cache_stats",
    "clear_cache",
    "configure_cache",
    "configure_parallel",
    "core",
    "current_backend",
    "disable",
    "enable",
    "evaluate_grid",
    "kernels",
    "map_scalar",
    "numpy_available",
    "parallel_settings",
    "pykernels",
    "resolved_backend",
    "set_backend",
    "using",
]
