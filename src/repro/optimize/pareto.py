"""Pareto analysis over (die area, transistor cost, design cost).

§3.1's conclusion — "it is the appropriate ratio of both [die size and
yield] which can provide the minimum transistor cost" — is a statement
about a trade-off frontier. This module makes the frontier explicit:
each candidate ``s_d`` maps to a vector of objectives (die area, total
transistor cost, design budget), and :func:`pareto_front` extracts the
non-dominated set. A designer can then see exactly which ``s_d`` values
are rational choices under *any* weighting of the objectives, and
:func:`knee_point` picks the balanced one. :func:`evaluate_front` takes
the front of a grid straight from the engine's arrays, building a
:class:`DesignPoint` only for the points on it.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from ..cost.total import TotalCostModel
from ..engine import evaluate_grid
from ..engine.kernels import DesignObjectivesKernel
from ..errors import DomainError
from ..obs.instrument import traced
from ..robust.policy import ErrorPolicy
from .sweep import sd_grid

__all__ = ["DesignPoint", "evaluate_points", "evaluate_front", "pareto_front",
           "knee_point"]

#: Cells per (rows, n) dominance mask in :func:`_nondominated`; bounds its
#: memory to a few MB however many points are compared.
_DOMINANCE_CELLS = 1 << 20


class DesignPoint(NamedTuple):
    """One candidate design density and its objective vector.

    An immutable, hashable named tuple: a front over an ``s_d`` grid
    holds one per grid point, and a tuple is built in a fraction of a
    frozen dataclass's time.
    """

    sd: float
    die_area_cm2: float
    transistor_cost_usd: float
    design_cost_usd: float

    def objectives(self) -> tuple[float, float, float]:
        """The minimised objective vector."""
        return (self.die_area_cm2, self.transistor_cost_usd, self.design_cost_usd)


def _objectives(model, n_transistors, feature_um, n_wafers, yield_fraction,
                cost_per_cm2, sd_values, policy, diagnostics):
    """``(sd, objectives)`` of the grid's kept points: ``sd`` of shape
    ``(n,)`` and the (area, cost, design) rows of shape ``(3, n)``."""
    policy = ErrorPolicy.coerce(policy)
    if sd_values is None:
        sd_values = sd_grid(model.design_model.sd0, n=200)
    sd_values = np.asarray(sd_values, dtype=float)
    kernel = DesignObjectivesKernel(model, n_transistors, feature_um, n_wafers,
                                    yield_fraction, cost_per_cm2)
    evaluation = evaluate_grid(kernel, sd_values, policy=policy,
                               where="optimize.pareto.evaluate_points",
                               equation="4", parameter="sd")
    if diagnostics is not None:
        diagnostics.extend(evaluation.diagnostics)
    if policy is ErrorPolicy.RAISE:  # nothing was masked
        return sd_values, evaluation.values
    kept = ~np.isnan(evaluation.values).all(axis=0)
    return sd_values[kept], evaluation.values[:, kept]


#: ``DesignPoint`` from an iterable of its four fields: ``_make`` without
#: its per-call length check (the rows below always hold four).
_design_point = partial(tuple.__new__, DesignPoint)


def _design_points(sd: np.ndarray, objectives: np.ndarray) -> list[DesignPoint]:
    return list(map(_design_point, zip(sd.tolist(), *objectives.tolist())))


@traced(equation="4")
def evaluate_points(
    model: TotalCostModel,
    n_transistors: float,
    feature_um: float,
    n_wafers: float,
    yield_fraction: float,
    cost_per_cm2: float,
    sd_values=None,
    policy: ErrorPolicy = ErrorPolicy.RAISE,
    diagnostics: list | None = None,
) -> list[DesignPoint]:
    """Objective vectors for a grid of candidate ``s_d`` values.

    The three objective curves are produced by one batched
    :func:`repro.engine.evaluate_grid` dispatch. Under
    ``policy=ErrorPolicy.MASK`` infeasible candidates are dropped from
    the returned list (a NaN objective vector would corrupt Pareto
    domination); pass a list as ``diagnostics`` to receive one
    :class:`repro.robust.Diagnostic` per dropped candidate. COLLECT
    raises :class:`repro.errors.CollectedErrors` after the full grid.
    """
    return _design_points(*_objectives(
        model, n_transistors, feature_um, n_wafers, yield_fraction,
        cost_per_cm2, sd_values, policy, diagnostics))


@traced(equation="4")
def evaluate_front(
    model: TotalCostModel,
    n_transistors: float,
    feature_um: float,
    n_wafers: float,
    yield_fraction: float,
    cost_per_cm2: float,
    sd_values=None,
    policy: ErrorPolicy = ErrorPolicy.RAISE,
    diagnostics: list | None = None,
) -> list[DesignPoint]:
    """``pareto_front(evaluate_points(...))``, or ``[]`` when no point is kept.

    Takes the same arguments as :func:`evaluate_points` and gives the
    same points in the same order, but finds the front on the engine's
    arrays and builds a :class:`DesignPoint` only for the points on it.
    """
    sd, objectives = _objectives(model, n_transistors, feature_um, n_wafers,
                                 yield_fraction, cost_per_cm2, sd_values,
                                 policy, diagnostics)
    front = np.flatnonzero(_nondominated(objectives))
    front = front[np.argsort(sd[front], kind="stable")]
    return _design_points(sd[front], objectives[:, front])


def _projection_cleared(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Points that no other point weakly dominates in ``(x, y)``.

    One sort by ``(x, y)`` and a running minimum of ``y``: a point is
    cleared when every point sorted before it has a larger ``y`` (NaN
    never dominates, so the minimum skips it) and its neighbours are not
    exact ``(x, y)`` twins. A point dominated in all objectives is weakly
    dominated in every pair of them, so a cleared point is on the front.
    """
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    before = np.full_like(ys, np.inf)
    np.fmin.accumulate(ys[:-1], out=before[1:])
    cleared = before > ys
    twin = (xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1])
    cleared[1:] &= ~twin
    cleared[:-1] &= ~twin
    out = np.empty_like(cleared)
    out[order] = cleared
    return out


def _nondominated(objectives: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``objectives`` (one row per objective, one
    column per point) that no other point dominates.

    The (area, design cost) projection clears most points in one sweep
    (on an ``s_d`` grid, where area rises and design cost falls, all of
    them). Each point left is compared with every point on ``(rows, n)``
    boolean masks built one objective at a time, in row blocks of at
    most ``_DOMINANCE_CELLS`` cells.
    """
    keep = _projection_cleared(objectives[0], objectives[-1])
    suspects = np.flatnonzero(~keep)
    n = objectives.shape[1]
    rows = max(1, _DOMINANCE_CELLS // max(n, 1))
    for start in range(0, len(suspects), rows):
        # le[i, j]: point j is <= suspect i in every objective so far;
        # lt[i, j]: point j is < suspect i in at least one.
        block = suspects[start:start + rows]
        le = np.ones((len(block), n), dtype=bool)
        lt = np.zeros((len(block), n), dtype=bool)
        for col in objectives:
            mine = col[block, None]
            le &= col[None, :] <= mine
            lt |= col[None, :] < mine
        keep[block] = ~(le & lt).any(axis=1)
    return keep


def pareto_front(points: list[DesignPoint]) -> list[DesignPoint]:
    """Non-dominated subset (all objectives minimised), sorted by ``s_d``.

    Point A dominates B when A is ≤ B in every objective and < in at
    least one.
    """
    if not points:
        raise DomainError("cannot take the Pareto front of an empty set")
    objectives = np.array([p.objectives() for p in points]).T
    keep = [p for p, k in zip(points, _nondominated(objectives).tolist()) if k]
    keep.sort(key=lambda p: p.sd)
    return keep


def knee_point(front: list[DesignPoint]) -> DesignPoint:
    """Balanced point of a Pareto front.

    Normalises each objective to [0, 1] over the front and returns the
    point with the smallest Euclidean distance to the ideal (all-zero)
    corner — the standard knee heuristic.
    """
    if not front:
        raise DomainError("empty Pareto front")
    if len(front) == 1:
        return front[0]
    objs = np.array([p.objectives() for p in front])
    lo = objs.min(axis=0)
    span = objs.max(axis=0) - lo
    span[span == 0] = 1.0
    norm = (objs - lo) / span
    distances = np.linalg.norm(norm, axis=1)
    return front[int(np.argmin(distances))]
