"""Parameter sweeps over the cost models — the engine behind Figure 4.

:func:`sd_sweep` evaluates eq. (4) (or eq. 7) over a grid of ``s_d``
values and returns a :class:`SweepResult` carrying the curve, its
minimum, and convenience accessors used by the plots/benches.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ..cost.generalized import GeneralizedCostModel
from ..cost.total import TotalCostModel
from ..engine import evaluate_grid
from ..engine.kernels import Eq4SdKernel, Eq4VolumeKernel, Eq7SdKernel
from ..errors import DomainError
from ..obs import metrics as obs_metrics
from ..obs.instrument import traced
from ..robust.policy import Diagnostic, ErrorPolicy
from ..validation import check_positive

__all__ = ["SweepResult", "sd_grid", "sd_sweep", "sd_sweep_generalized", "volume_sweep"]


@dataclass(frozen=True)
class SweepResult:
    """A 1-D cost sweep: ``cost[i] = C_tr(x[i])``.

    Attributes
    ----------
    parameter:
        Name of the swept variable (``"sd"``, ``"n_wafers"``, ...).
    x:
        Grid values.
    cost:
        Transistor cost at each grid point ($); NaN marks a point
        masked under :attr:`repro.robust.ErrorPolicy.MASK`.
    meta:
        The fixed operating point (for reporting).
    diagnostics:
        One :class:`repro.robust.Diagnostic` per masked point (empty
        for RAISE-policy sweeps).
    """

    parameter: str
    x: np.ndarray
    cost: np.ndarray
    meta: dict
    diagnostics: tuple[Diagnostic, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.x.shape != self.cost.shape:
            raise DomainError("x and cost must have matching shapes")
        if self.x.size < 2:
            raise DomainError("a sweep needs at least 2 grid points")

    @property
    def n_masked(self) -> int:
        """Grid points masked to NaN by the error policy."""
        return int(np.count_nonzero(np.isnan(self.cost)))

    @cached_property
    def argmin(self) -> int:
        """Index of the cheapest (unmasked) grid point.

        The first minimum on ties, as ``np.nanargmin``. ``np.argmin``
        returns the first NaN when there is one, so a non-NaN answer
        from it is already the NaN-ignoring minimum.
        """
        i = int(np.argmin(self.cost))
        if not np.isnan(self.cost[i]):
            return i
        if np.all(np.isnan(self.cost)):
            raise DomainError(
                f"every grid point of the {self.parameter!r} sweep is masked; "
                "no feasible minimum (see .diagnostics)")
        return int(np.nanargmin(self.cost))

    @property
    def x_opt(self) -> float:
        """Grid value minimising the cost."""
        return float(self.x[self.argmin])

    @property
    def cost_opt(self) -> float:
        """Minimum cost on the grid ($/transistor)."""
        return float(self.cost[self.argmin])

    def is_interior_minimum(self) -> bool:
        """Whether the minimum falls strictly inside the grid.

        A boundary minimum means the grid clipped the U-curve — widen it.
        """
        return 0 < self.argmin < self.x.size - 1

    def cost_at(self, x_value: float) -> float:
        """Cost at an arbitrary point by linear interpolation."""
        if not (self.x.min() <= x_value <= self.x.max()):
            raise DomainError(f"{x_value} outside sweep range [{self.x.min()}, {self.x.max()}]")
        return float(np.interp(x_value, self.x, self.cost))

    def penalty_vs_optimum(self, x_value: float) -> float:
        """Relative cost penalty of operating at ``x_value`` vs the optimum."""
        return self.cost_at(x_value) / self.cost_opt - 1.0


@lru_cache(maxsize=16)
def _geometric(start: float, stop: float, n: int, offset: float) -> np.ndarray:
    """``offset + np.geomspace(start, stop, n)``, built once per argument
    set; read-only, so callers get a copy."""
    grid = offset + np.geomspace(start, stop, n)
    grid.flags.writeable = False
    return grid


def sd_grid(sd0: float, sd_max: float = 1000.0, n: int = 400, margin: float = 5.0) -> np.ndarray:
    """A grid of ``s_d`` values safely above the divergence at ``s_d0``.

    Starts at ``s_d0 + margin`` (the design cost diverges at ``s_d0``)
    and spaces points geometrically, which resolves the steep left wall
    of the U-curve better than a linear grid. Each call returns a new
    array; the grid itself is built once per argument set.
    """
    sd0 = check_positive(sd0, "sd0")
    if sd_max <= sd0 + margin:
        raise DomainError(f"sd_max={sd_max} must exceed sd0+margin={sd0 + margin}")
    if n < 2:
        raise DomainError("n must be >= 2")
    return _geometric(float(margin), float(sd_max - sd0), operator.index(n),
                      sd0).copy()


@traced(equation="4", attach_result=True,
        capture=("n_transistors", "feature_um", "n_wafers", "yield_fraction",
                 "cost_per_cm2", "sd_values"))
def sd_sweep(
    model: TotalCostModel,
    n_transistors: float,
    feature_um: float,
    n_wafers: float,
    yield_fraction: float,
    cost_per_cm2: float,
    sd_values: np.ndarray | None = None,
    policy: ErrorPolicy = ErrorPolicy.RAISE,
) -> SweepResult:
    """Figure 4's sweep: eq. (4) cost versus ``s_d`` at a fixed point.

    The grid dispatches through :func:`repro.engine.evaluate_grid`
    in vectorized blocks. Under the
    default ``policy=ErrorPolicy.RAISE`` any infeasible point aborts
    the sweep — the historical behavior. MASK/COLLECT yield NaN-masked
    entries plus per-point diagnostics (see :mod:`repro.robust`).
    """
    policy = ErrorPolicy.coerce(policy)
    if sd_values is None:
        sd_values = sd_grid(model.design_model.sd0)
    sd_values = np.asarray(sd_values, dtype=float)
    obs_metrics.observe("optimize_sweep_grid_points", sd_values.size)
    kernel = Eq4SdKernel(model, n_transistors, feature_um, n_wafers,
                         yield_fraction, cost_per_cm2)
    evaluation = evaluate_grid(kernel, sd_values, policy=policy,
                               where="optimize.sweep.sd_sweep", equation="4",
                               parameter="sd")
    return SweepResult(
        parameter="sd",
        x=sd_values,
        cost=evaluation.values,
        meta={
            "n_transistors": n_transistors,
            "feature_um": feature_um,
            "n_wafers": n_wafers,
            "yield_fraction": yield_fraction,
            "cost_per_cm2": cost_per_cm2,
        },
        diagnostics=evaluation.diagnostics,
    )


@traced(equation="7", attach_result=True,
        capture=("n_transistors", "feature_um", "n_wafers", "sd_values"))
def sd_sweep_generalized(
    model: GeneralizedCostModel,
    n_transistors: float,
    feature_um: float,
    n_wafers: float,
    sd_values: np.ndarray | None = None,
    policy: ErrorPolicy = ErrorPolicy.RAISE,
) -> SweepResult:
    """The eq.-(7) version of the sweep — yield responds to ``s_d``.

    ``policy`` behaves as in :func:`sd_sweep`.
    """
    policy = ErrorPolicy.coerce(policy)
    if sd_values is None:
        sd_values = sd_grid(model.design_model.sd0)
    sd_values = np.asarray(sd_values, dtype=float)
    obs_metrics.observe("optimize_sweep_grid_points", sd_values.size)
    kernel = Eq7SdKernel(model, n_transistors, feature_um, n_wafers)
    evaluation = evaluate_grid(kernel, sd_values, policy=policy,
                               where="optimize.sweep.sd_sweep_generalized",
                               equation="7", parameter="sd")
    return SweepResult(
        parameter="sd",
        x=sd_values,
        cost=evaluation.values,
        meta={
            "n_transistors": n_transistors,
            "feature_um": feature_um,
            "n_wafers": n_wafers,
            "model": "generalized",
        },
        diagnostics=evaluation.diagnostics,
    )


@traced(equation="4", attach_result=True,
        capture=("sd", "n_transistors", "feature_um", "yield_fraction",
                 "cost_per_cm2", "n_wafers_values"))
def volume_sweep(
    model: TotalCostModel,
    sd: float,
    n_transistors: float,
    feature_um: float,
    yield_fraction: float,
    cost_per_cm2: float,
    n_wafers_values: np.ndarray | None = None,
    policy: ErrorPolicy = ErrorPolicy.RAISE,
) -> SweepResult:
    """Cost versus wafer volume at a fixed design point.

    Shows the eq.-(5) amortisation: cost falls hyperbolically towards
    the eq.-(3) manufacturing floor as ``N_w`` grows. ``policy``
    behaves as in :func:`sd_sweep`.
    """
    policy = ErrorPolicy.coerce(policy)
    if n_wafers_values is None:
        n_wafers_values = _geometric(100.0, 1e6, 200, 0.0).copy()
    n_wafers_values = np.asarray(n_wafers_values, dtype=float)
    obs_metrics.observe("optimize_sweep_grid_points", n_wafers_values.size)
    kernel = Eq4VolumeKernel(model, sd, n_transistors, feature_um,
                             yield_fraction, cost_per_cm2)
    evaluation = evaluate_grid(kernel, n_wafers_values, policy=policy,
                               where="optimize.sweep.volume_sweep",
                               equation="4", parameter="n_wafers")
    return SweepResult(
        parameter="n_wafers",
        x=n_wafers_values,
        cost=evaluation.values,
        meta={
            "sd": sd,
            "n_transistors": n_transistors,
            "feature_um": feature_um,
            "yield_fraction": yield_fraction,
            "cost_per_cm2": cost_per_cm2,
        },
        diagnostics=evaluation.diagnostics,
    )
