"""repro.engine — vectorized batch-evaluation backend for the model family.

The engine evaluates the cost/yield/density models of eqs. (1)–(7)
over whole parameter grids in single vectorized calls instead of
python-level per-point loops. It is the dispatch layer behind
``optimize.sweep``, ``optimize.pareto``, ``roadmap`` scans, and the
:mod:`repro.api` Scenario facade:

* :mod:`repro.engine.kernels` — frozen adapters binding one model plus
  its fixed operating point; each knows a vectorized ``batch`` and an
  exact legacy scalar ``point``;
* :mod:`repro.engine.core` — :func:`evaluate_grid` (policy-preserving
  dispatch over 64k-point blocks, spread across threads for large
  grids; :func:`configure_parallel` turns the threads off) and
  :func:`map_scalar` (the scalar-sweep loop);
* :mod:`repro.engine.pykernels` — eqs. (2) and (4)–(7) in stdlib
  floats, written once: the set-up and arithmetic that the cost models
  and single operating points share;
* :mod:`repro.engine.points` — :func:`price_points`, eq. (4) at single
  operating points in those kernels (``evaluate_many`` and the
  server's ``/evaluate``), with no NumPy import.

Typical use goes through the re-exports::

    from repro import engine
    engine.evaluate_grid(kernel, grid, where="my.sweep")
"""

from __future__ import annotations

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "core": (
        "GridEvaluation", "configure_parallel", "evaluate_grid", "map_scalar",
        "parallel_settings",
    ),
    "kernels": (),
    "points": ("Eq4Params", "price_points"),
    "pykernels": (),
})

__all__ = [
    "Eq4Params",
    "GridEvaluation",
    "configure_parallel",
    "core",
    "evaluate_grid",
    "kernels",
    "map_scalar",
    "parallel_settings",
    "points",
    "price_points",
    "pykernels",
]
