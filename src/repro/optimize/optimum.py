"""Optimal design density — §3.1's new design objective.

The paper's central prescription: stop minimising die size (``s_d``) or
maximising yield in isolation; minimise ``C_tr``. The eq.-(4) U-curve
has a unique interior optimum balancing

* manufacturing cost, rising linearly in ``s_d`` (sparser die = more
  silicon), against
* design cost, diverging as ``s_d → s_d0⁺`` (denser design = more
  failed iterations).

:func:`optimal_sd` finds it with a golden-section search over
:meth:`~repro.cost.total.TotalCostModel.sd_curve`, eq. (4) bound to the
operating point once per solve (the curve is strictly unimodal on
``(s_d0, ∞)``); :func:`optimal_sd_condition`
verifies the analytic first-order condition; :func:`optimum_vs_volume`
traces how the optimum migrates with wafer volume — the paper's
Figure 4(a)→(b) contrast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cost.generalized import GeneralizedCostModel
from ..cost.total import TotalCostModel
from ..engine import map_scalar
from ..errors import DomainError
from ..obs import metrics as obs_metrics
from ..obs.instrument import traced
from ..robust.policy import ErrorPolicy
from ..robust.retry import RetryBudget, note_retry
from ..robust.solvers import retrying_golden_min
from ..validation import check_positive

__all__ = ["OptimumResult", "optimal_sd", "optimal_sd_generalized",
           "optimal_sd_condition", "optimum_vs_volume"]


@dataclass(frozen=True)
class OptimumResult:
    """An optimal design point.

    Attributes
    ----------
    sd_opt:
        Cost-minimising design decompression index.
    cost_opt:
        Transistor cost at the optimum ($).
    iterations:
        Golden-section iterations used (by the successful attempt).
    bracket:
        The search interval (lo, hi) of the successful attempt.
    attempts:
        Solve attempts consumed (> 1 only when a
        :class:`repro.robust.RetryBudget` rode through failures).
    """

    sd_opt: float
    cost_opt: float
    iterations: int
    bracket: tuple[float, float]
    attempts: int = 1


@traced(equation="4", attach_result=True,
        capture=("n_transistors", "feature_um", "n_wafers", "yield_fraction",
                 "cost_per_cm2", "sd_max"))
def optimal_sd(
    model: TotalCostModel,
    n_transistors: float,
    feature_um: float,
    n_wafers: float,
    yield_fraction: float,
    cost_per_cm2: float,
    sd_max: float = 5000.0,
    tol: float = 1e-10,
    max_iter: int = 500,
    retry: RetryBudget | None = None,
) -> OptimumResult:
    """Cost-minimising ``s_d`` for eq. (4) at a fixed operating point.

    Searches ``(s_d0, sd_max]``. Raises :class:`DomainError` when the
    minimum sits on the upper boundary (i.e. ``sd_max`` clipped it —
    physically, design cost dominates so completely that ever-sparser
    design keeps paying; widen ``sd_max``).

    The objective is :meth:`TotalCostModel.sd_curve`, built once per
    solve: the operating point is validated and its ``s_d``-independent
    factors computed before the first golden-section step, so each step
    costs only the ``s_d`` part of eqs. (4)–(6) and the trace records
    one ``sd_curve`` span per solve rather than one per evaluation.

    With a :class:`repro.robust.RetryBudget` the solver rides through
    both failure modes before giving up: a convergence stall restarts
    with a grown iteration cap and perturbed lower bound, and a clipped
    optimum re-solves with the bracket expanded by
    :attr:`~repro.robust.RetryBudget.bracket_growth`. Final failures
    carry a :class:`repro.robust.ConvergenceReport` (stalls) or name
    the last bracket tried (clips).
    """
    sd0 = model.design_model.sd0
    lo = sd0 * (1 + 1e-6) + 1e-9
    if sd_max <= lo:
        raise DomainError(f"sd_max={sd_max} must exceed sd0={sd0}")

    curve = model.sd_curve(n_transistors, feature_um, n_wafers,
                           yield_fraction, cost_per_cm2)

    def fn(sd: float) -> float:
        return float(curve(sd))

    solver = "optimize.optimum.optimal_sd"
    hi = sd_max
    attempts_used = 0
    for expansion in range(1, (1 if retry is None else retry.max_attempts) + 1):
        sd_opt, cost_opt, iters, attempts = retrying_golden_min(
            fn, lo, hi, tol, max_iter, solver=solver, retry=retry, lo_floor=sd0)
        attempts_used += attempts
        if sd_opt <= hi * (1 - 1e-3):
            break
        if retry is None or expansion >= retry.max_attempts:
            raise DomainError(
                f"optimum clipped at sd_max={hi}; design cost still dominates — widen the bracket"
            )
        note_retry(solver, expansion, "bracket-clipped")
        hi *= retry.bracket_growth
    obs_metrics.set_gauge("optimize_optimal_sd_iterations", iters)
    return OptimumResult(sd_opt=sd_opt, cost_opt=cost_opt, iterations=iters,
                         bracket=(lo, hi), attempts=attempts_used)


@traced(equation="7", attach_result=True,
        capture=("n_transistors", "feature_um", "n_wafers", "sd_max"))
def optimal_sd_generalized(
    model: GeneralizedCostModel,
    n_transistors: float,
    feature_um: float,
    n_wafers: float,
    sd_max: float = 5000.0,
    tol: float = 1e-10,
    max_iter: int = 500,
    retry: RetryBudget | None = None,
) -> OptimumResult:
    """Cost-minimising ``s_d`` for the eq.-(7) model (yield coupled).

    ``retry`` hardens convergence stalls as in :func:`optimal_sd`.
    """
    sd0 = model.design_model.sd0
    lo = sd0 * (1 + 1e-6) + 1e-9
    if sd_max <= lo:
        raise DomainError(f"sd_max={sd_max} must exceed sd0={sd0}")

    def fn(sd: float) -> float:
        return float(model.transistor_cost(sd, n_transistors, feature_um, n_wafers))

    sd_opt, cost_opt, iters, attempts = retrying_golden_min(
        fn, lo, sd_max, tol, max_iter,
        solver="optimize.optimum.optimal_sd_generalized", retry=retry, lo_floor=sd0)
    obs_metrics.set_gauge("optimize_optimal_sd_iterations", iters)
    return OptimumResult(sd_opt=sd_opt, cost_opt=cost_opt, iterations=iters,
                         bracket=(lo, sd_max), attempts=attempts)


@traced(equation="4")
def optimal_sd_condition(
    model: TotalCostModel,
    sd: float,
    n_transistors: float,
    feature_um: float,
    n_wafers: float,
    yield_fraction: float,
    cost_per_cm2: float,
) -> float:
    """First-order optimality residual of eq. (4) at ``sd``.

    Writing eq. (4) as ``C_tr ∝ s_d (Cm + (C_MA + C_DE(s_d))/W)`` with
    ``W = N_w A_w``, the stationarity condition is

        ``Cm + (C_MA + C_DE)/W + s_d · C_DE'(s_d)/W = 0``.

    Returns the left-hand side (in $/cm²); ≈ 0 at the optimum, negative
    on the design-cost-dominated side, positive on the
    manufacturing-dominated side. Used by tests to cross-check the
    numeric optimiser against the calculus.
    """
    sd = check_positive(sd, "sd")
    wafer_cm2 = n_wafers * model.wafer.area_cm2
    c_de = model.design_model.cost(n_transistors, sd)
    c_ma = model.mask_cost(feature_um)
    dc_de = model.design_model.marginal_cost_wrt_sd(n_transistors, sd)
    return float(cost_per_cm2 + (c_ma + c_de) / wafer_cm2 + sd * dc_de / wafer_cm2)


@traced()
def optimum_vs_volume(
    model: TotalCostModel,
    n_transistors: float,
    feature_um: float,
    yield_fraction: float,
    cost_per_cm2: float,
    n_wafers_values=None,
    sd_max: float = 5000.0,
    policy: ErrorPolicy = ErrorPolicy.RAISE,
    retry: RetryBudget | None = None,
) -> list[tuple[float, OptimumResult]]:
    """Trace the optimal ``s_d`` across wafer volumes.

    Returns ``[(n_wafers, OptimumResult), ...]``. The paper's Figure 4
    message appears as a monotone fall of ``sd_opt`` with volume: high
    volume amortises design cost, so dense (small-``s_d``) design pays.

    Under ``policy=ErrorPolicy.MASK`` a volume whose solve fails is
    dropped from the returned list (its failure lands on the obs
    counters); COLLECT raises the aggregate after every volume was
    tried. ``retry`` is forwarded to each :func:`optimal_sd` call.
    """
    policy = ErrorPolicy.coerce(policy)
    if n_wafers_values is None:
        n_wafers_values = np.geomspace(1e3, 1e6, 13)
    volumes = [float(nw) for nw in np.asarray(n_wafers_values, dtype=float)]

    def solve(nw: float) -> tuple[float, OptimumResult]:
        res = optimal_sd(model, n_transistors, feature_um, nw,
                         yield_fraction, cost_per_cm2, sd_max=sd_max,
                         retry=retry)
        return (nw, res)

    out, log = map_scalar(volumes, solve, policy=policy,
                          where="optimize.optimum.optimum_vs_volume",
                          equation="4", parameter="n_wafers",
                          value_of=float)
    log.finish()
    return out
