"""Sensitivity analysis of the cost optimum.

§2.4's footnote concedes that the eq.-(6) constants come from a
private, illustration-grade dataset. Before trusting the optimum they
imply, a user should know how much it moves when those constants (and
the other operating-point parameters) wiggle. This module provides:

* :func:`parameter_elasticities` — local log-log sensitivities
  ``∂ln(sd_opt)/∂ln(θ)`` of the optimal density to each model
  parameter;
* :func:`tornado` — one-at-a-time low/high excursions of the optimum
  and its cost (the classic tornado-chart data).

Both scans run through :func:`repro.engine.map_scalar`, which gives
every parameter its own diagnostic under the caller's policy. Each
item solves two eq.-(4) optima on one setup of the model per call
(``repro.optimize.optimum._SharedSetup``): the per-model constants are
computed once, and each solve is a few Newton steps in plain floats,
bit-identical to :func:`~repro.optimize.optimal_sd`. A handful of
solves per call is too few for an array solve to pay (see
``docs/engine.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..cost.total import TotalCostModel
from ..engine import map_scalar
from ..errors import DomainError
from ..obs.instrument import traced
from ..robust.policy import ErrorPolicy
from .optimum import _SharedSetup

__all__ = ["SensitivityEntry", "parameter_elasticities", "tornado"]

#: Operating-point parameters the sensitivities are taken over.
_POINT_PARAMS = ("n_transistors", "feature_um", "n_wafers", "yield_fraction",
                 "cost_per_cm2")
#: Eq.-(6) parameters (perturbed through a modified design model).
_MODEL_PARAMS = ("a0", "p1", "p2", "sd0")


@dataclass(frozen=True)
class SensitivityEntry:
    """Effect of one parameter excursion on the optimum."""

    parameter: str
    low_value: float
    high_value: float
    sd_opt_low: float
    sd_opt_high: float
    cost_opt_low: float
    cost_opt_high: float

    @property
    def sd_swing(self) -> float:
        """Absolute swing of the optimal ``s_d`` across the excursion."""
        return abs(self.sd_opt_high - self.sd_opt_low)

    @property
    def cost_swing(self) -> float:
        """Absolute swing of the optimal cost across the excursion ($)."""
        return abs(self.cost_opt_high - self.cost_opt_low)


def _perturbed(setup: _SharedSetup, point: dict, parameter: str,
               value: float, cost: bool) -> tuple[float, float]:
    """``(sd_opt, cost_opt)`` with ``parameter`` moved to ``value``
    (``cost_opt`` NaN unless ``cost``)."""
    if parameter in _POINT_PARAMS:
        point = dict(point)
        point[parameter] = value
    elif parameter in _MODEL_PARAMS:
        model = setup.model
        new_design = replace(model.design_model, **{parameter: value})
        setup = _SharedSetup(replace(model, design_model=new_design),
                             setup.sd_max)
    else:
        raise DomainError(
            f"unknown parameter {parameter!r}; operating-point params: {_POINT_PARAMS}, "
            f"design-model params: {_MODEL_PARAMS}"
        )
    sd_opt, cost_opt, _ = setup.solve(
        point["n_transistors"], point["feature_um"], point["n_wafers"],
        point["yield_fraction"], point["cost_per_cm2"], cost=cost)
    return sd_opt, cost_opt


def _base_value(model: TotalCostModel, point: dict, parameter: str) -> float:
    if parameter in _POINT_PARAMS:
        return float(point[parameter])
    if parameter in _MODEL_PARAMS:
        return float(getattr(model.design_model, parameter))
    raise DomainError(
        f"unknown parameter {parameter!r}; operating-point params: {_POINT_PARAMS}, "
        f"design-model params: {_MODEL_PARAMS}"
    )


@traced(equation="4")
def parameter_elasticities(
    model: TotalCostModel,
    point: dict,
    parameters=None,
    rel_step: float = 0.05,
    sd_max: float = 5000.0,
    policy: ErrorPolicy = ErrorPolicy.RAISE,
) -> dict[str, float]:
    """Local elasticities ``d ln(sd_opt) / d ln(θ)`` (central differences).

    Parameters
    ----------
    model:
        The eq.-(4) model.
    point:
        Operating point dict with keys ``n_transistors``, ``feature_um``,
        ``n_wafers``, ``yield_fraction``, ``cost_per_cm2``.
    parameters:
        Names to analyse; defaults to every operating-point and eq.-(6)
        parameter. A ``yield_fraction`` whose high step would exceed 1
        steps to exactly 1 instead, with the low step moved to keep the
        two steps geometrically symmetric about the base value. At a
        base ``yield_fraction`` of exactly 1 the high step is the base
        itself, so its elasticity is the one-sided backward difference
        between ``base·(1 − rel_step)`` and ``base``.
    rel_step:
        Relative perturbation for the central difference.
    policy:
        Under MASK a parameter whose perturbed solve fails maps to a
        NaN elasticity instead of aborting the whole analysis; COLLECT
        raises the aggregate after every parameter was tried.
    """
    policy = ErrorPolicy.coerce(policy)
    if parameters is None:
        parameters = list(_POINT_PARAMS) + list(_MODEL_PARAMS)
    setup = _SharedSetup(model, sd_max)

    def elasticity(name: str) -> float:
        base = _base_value(model, point, name)
        lo_v, hi_v = base * (1 - rel_step), base * (1 + rel_step)
        if name == "yield_fraction" and hi_v > 1.0:
            hi_v = 1.0
            # Keep geometric symmetry; at the base itself step backwards.
            lo_v = base * base / hi_v if base < hi_v else base * (1 - rel_step)
        sd_lo, _ = _perturbed(setup, point, name, lo_v, cost=False)
        sd_hi, _ = _perturbed(setup, point, name, hi_v, cost=False)
        return (math.log(sd_hi) - math.log(sd_lo)) / (math.log(hi_v) - math.log(lo_v))

    results, log = map_scalar(
        parameters, elasticity, policy=policy,
        where="optimize.sensitivity.parameter_elasticities", equation="4",
        parameter_of=lambda name: name, on_error=lambda name: math.nan)
    log.finish()
    return dict(zip(parameters, results))


@traced(equation="4")
def tornado(
    model: TotalCostModel,
    point: dict,
    excursions: dict[str, tuple[float, float]],
    sd_max: float = 5000.0,
    policy: ErrorPolicy = ErrorPolicy.RAISE,
) -> list[SensitivityEntry]:
    """One-at-a-time excursion analysis, sorted by cost swing (largest first).

    ``excursions`` maps parameter name → (low, high) values to try.
    Under MASK a parameter whose excursion solve fails becomes an
    all-NaN :class:`SensitivityEntry` (sorted last) instead of aborting
    the analysis; COLLECT defers and aggregates the failures.
    """
    policy = ErrorPolicy.coerce(policy)
    for name, (lo_v, hi_v) in excursions.items():
        if lo_v >= hi_v:
            raise DomainError(f"excursion for {name!r} must have low < high; got {lo_v}, {hi_v}")
    setup = _SharedSetup(model, sd_max)

    def entry(item) -> SensitivityEntry:
        name, (lo_v, hi_v) = item
        sd_lo, cost_lo = _perturbed(setup, point, name, lo_v, cost=True)
        sd_hi, cost_hi = _perturbed(setup, point, name, hi_v, cost=True)
        return SensitivityEntry(
            parameter=name, low_value=lo_v, high_value=hi_v,
            sd_opt_low=sd_lo, sd_opt_high=sd_hi,
            cost_opt_low=cost_lo, cost_opt_high=cost_hi,
        )

    def masked_entry(item) -> SensitivityEntry:
        name, (lo_v, hi_v) = item
        return SensitivityEntry(
            parameter=name, low_value=lo_v, high_value=hi_v,
            sd_opt_low=math.nan, sd_opt_high=math.nan,
            cost_opt_low=math.nan, cost_opt_high=math.nan,
        )

    entries, log = map_scalar(
        list(excursions.items()), entry, policy=policy,
        where="optimize.sensitivity.tornado", equation="4",
        parameter_of=lambda item: item[0], on_error=masked_entry)
    log.finish()
    entries.sort(key=lambda e: (math.isnan(e.cost_swing), -e.cost_swing
                                if not math.isnan(e.cost_swing) else 0.0))
    return entries
