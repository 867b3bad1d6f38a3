"""Pareto analysis over (die area, transistor cost, design cost).

§3.1's conclusion — "it is the appropriate ratio of both [die size and
yield] which can provide the minimum transistor cost" — is a statement
about a trade-off frontier. This module makes the frontier explicit:
each candidate ``s_d`` maps to a vector of objectives (die area, total
transistor cost, design budget), and :func:`pareto_front` extracts the
non-dominated set. A designer can then see exactly which ``s_d`` values
are rational choices under *any* weighting of the objectives, and
:func:`knee_point` picks the balanced one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cost.total import TotalCostModel
from ..engine import evaluate_grid
from ..engine.kernels import DesignObjectivesKernel
from ..errors import DomainError
from ..obs.instrument import traced
from ..robust.policy import ErrorPolicy
from .sweep import sd_grid

__all__ = ["DesignPoint", "evaluate_points", "pareto_front", "knee_point"]

#: Cells per (rows, n) dominance mask in :func:`pareto_front`; bounds its
#: memory to a few MB however many points are compared.
_DOMINANCE_CELLS = 1 << 20


@dataclass(frozen=True)
class DesignPoint:
    """One candidate design density and its objective vector."""

    sd: float
    die_area_cm2: float
    transistor_cost_usd: float
    design_cost_usd: float

    def objectives(self) -> tuple[float, float, float]:
        """The minimised objective vector."""
        return (self.die_area_cm2, self.transistor_cost_usd, self.design_cost_usd)


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
    policy = ErrorPolicy.coerce(policy)
    if sd_values is None:
        sd_values = sd_grid(model.design_model.sd0, n=200)
    sd_values = np.asarray(sd_values, dtype=float)
    kernel = DesignObjectivesKernel(model, n_transistors, feature_um, n_wafers,
                                    yield_fraction, cost_per_cm2)
    evaluation = evaluate_grid(kernel, sd_values, policy=policy,
                               where="optimize.pareto.evaluate_points",
                               equation="4", parameter="sd")
    area, cost, design = evaluation.values
    kept = ~(np.isnan(area) & np.isnan(cost) & np.isnan(design))
    points = [
        DesignPoint(sd=sd, die_area_cm2=a, transistor_cost_usd=c, design_cost_usd=d)
        for sd, a, c, d in zip(sd_values[kept].tolist(), area[kept].tolist(),
                               cost[kept].tolist(), design[kept].tolist())
    ]
    if diagnostics is not None:
        diagnostics.extend(evaluation.diagnostics)
    return points


def pareto_front(points: list[DesignPoint]) -> list[DesignPoint]:
    """Non-dominated subset (all objectives minimised), sorted by ``s_d``.

    Point A dominates B when A is ≤ B in every objective and < in at
    least one. The test runs on ``(rows, n)`` boolean masks built one
    objective column at a time, in row blocks of at most
    ``_DOMINANCE_CELLS`` cells.
    """
    if not points:
        raise DomainError("cannot take the Pareto front of an empty set")
    objs = np.array([p.objectives() for p in points])
    n = len(points)
    dominated = np.empty(n, dtype=bool)
    rows = max(1, _DOMINANCE_CELLS // n)
    for start in range(0, n, rows):
        # le[i, j]: point j is <= point i in every objective so far;
        # lt[i, j]: point j is < point i in at least one.
        block = objs[start:start + rows]
        le = np.ones((len(block), n), dtype=bool)
        lt = np.zeros((len(block), n), dtype=bool)
        for col, mine in zip(objs.T, block.T):
            le &= col[None, :] <= mine[:, None]
            lt |= col[None, :] < mine[:, None]
        dominated[start:start + rows] = (le & lt).any(axis=1)
    keep = [p for p, d in zip(points, dominated.tolist()) if not d]
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
