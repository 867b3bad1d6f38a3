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
* :mod:`repro.engine.backend` — ``auto``/``numpy``/``python`` mode
  selection (:func:`disable` forces the pure-python fallback);
* :mod:`repro.engine.pykernels` — stdlib-only scalar kernels used when
  NumPy is absent or the python backend is forced;
* :mod:`repro.engine.points` — :func:`price_points`, eq. (4) at single
  operating points in those kernels (``evaluate_many`` and the
  server's ``/evaluate``), with no NumPy import.

Typical use goes through the re-exports::

    from repro import engine
    with engine.using("python"):
        ...  # dispatches run the pure-python kernels here
"""

from __future__ import annotations

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "backend": (
        "BACKENDS", "current_backend", "disable", "enable", "numpy_available",
        "resolved_backend", "set_backend", "using",
    ),
    "core": (
        "GridEvaluation", "configure_parallel", "evaluate_grid", "map_scalar",
        "parallel_settings",
    ),
    "kernels": (),
    "points": ("Eq4Params", "price_points"),
    "pykernels": (),
})

__all__ = [
    "BACKENDS",
    "Eq4Params",
    "GridEvaluation",
    "backend",
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
    "points",
    "price_points",
    "pykernels",
    "resolved_backend",
    "set_backend",
    "using",
]
