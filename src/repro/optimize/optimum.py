"""Optimal design density — §3.1's new design objective.

The paper's central prescription: stop minimising die size (``s_d``) or
maximising yield in isolation; minimise ``C_tr``. The eq.-(4) U-curve
has a unique interior optimum balancing

* manufacturing cost, rising linearly in ``s_d`` (sparser die = more
  silicon), against
* design cost, diverging as ``s_d → s_d0⁺`` (denser design = more
  failed iterations).

:func:`optimal_sd` finds it as the one root of eq. (4)'s stationarity
equation. With ``m = s_d − s_d0``, ``K = Cm_sq·N_w·A_w + C_MA`` and
``A = A0·N_tr^p1``, ``dC_tr/ds_d = 0`` reads

    ``f(m) = K·m^(p2+1) + A(1−p2)·m − p2·A·s_d0 = 0``.

``f(0) < 0`` and ``f`` is convex on ``m > 0``, so the root is unique and
a Newton iteration started right of it falls monotonically onto it in
a handful of steps. A model with a test term has no such closed
equation; its optimum is a golden-section search over
:meth:`~repro.cost.total.TotalCostModel.sd_curve`.
:func:`optimal_sd_condition` evaluates the first-order condition in
$/cm²; :func:`optimum_vs_volume` traces how the optimum migrates with
wafer volume — the paper's Figure 4(a)→(b) contrast. It and the scans
of :mod:`repro.optimize.sensitivity` solve many operating points of
one model, so they set the model up once (:class:`_SharedSetup`) and
run each solve untraced in plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..cost.generalized import GeneralizedCostModel
from ..cost.total import TotalCostModel
from ..engine import map_scalar
from ..engine import pykernels as pyk
from ..errors import ConvergenceError, DomainError, ReproError
from ..obs import metrics as obs_metrics
from ..obs.instrument import traced
from ..robust.policy import ErrorPolicy
from ..robust.retry import ConvergenceReport, RetryBudget, note_retry
from ..robust.solvers import retrying_golden_min
from ..validation import check_positive

__all__ = ["OptimumResult", "optimal_sd", "optimal_sd_generalized",
           "optimal_sd_condition", "optimum_vs_volume"]

#: Bound on the power and the cost :class:`_SharedSetup` checks in floats:
#: far enough inside the float range that NumPy's last bit cannot leave it.
_FAR = 2.0 ** 1000


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
        Solver steps used by the successful attempt: Newton steps on
        the stationarity equation, or golden-section steps for a model
        with a test term and for eq. (7). 0 when the optimum sits on
        the lower end of the bracket.
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


def _pow(x: float, y: float) -> float:
    """``x ** y`` for floats, ``inf`` where Python's ``**`` would overflow."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _ratio(point) -> float:
    """``r = K/A``, the one operating-point factor of eq. (4)'s stationarity equation.

    Dividing ``f`` by ``A`` gives ``g(m) = r·m^(p2+1) + (1−p2)·m − p2·s_d0``
    (:func:`_equation`). Only ``r`` carries the operating point, so the
    root does not depend on ``Y`` or ``u``, and nothing overflows before
    ``r`` does. ``point`` is the curve's
    :class:`~repro.engine.pykernels.Eq4Point`; a ``C_MA`` that failed
    raises here.
    """
    c_ma = point.c_ma
    if isinstance(c_ma, DomainError):
        raise c_ma
    a = point.amplitude
    if a is None:  # ``N_tr^p1`` overflowed: ``K/inf``
        return 0.0
    return (point.cm_sq * point.wafer_cm2 + c_ma) / a if a > 0 else math.inf


def _equation(r: float, p2: float, sd0: float):
    """``g(m)``, returning the value and the slope ``g'(m)`` (see :func:`_ratio`)."""
    linear = 1.0 - p2
    offset = p2 * sd0

    def g(m: float) -> tuple[float, float]:
        rm = r * _pow(m, p2)
        return rm * m + linear * m - offset, (p2 + 1.0) * rm + linear

    return g


def _newton_start(r: float, p2: float, sd0: float) -> float:
    """A margin right of ``g``'s root, for ``p2 > 1`` within ``2^(1/p2)`` of it.

    ``r·m^(p2+1)`` alone reaches ``p2·s_d0`` at ``u1``. For ``p2 ≤ 1``
    the linear term is ≥ 0, so the root is at most ``u1``. For
    ``p2 > 1`` it is negative, and ``r·m^p2 = p2−1`` at ``u2``; the root
    is at least the larger of the two, and ``2^(1/p2)`` times it makes
    ``r·m^(p2+1)`` at least twice each negative part.
    """
    if not r > 0:
        return math.inf
    u1 = (p2 * sd0 / r) ** (1.0 / (p2 + 1.0))
    if p2 <= 1.0:
        return u1
    u2 = ((p2 - 1.0) / r) ** (1.0 / p2)
    return 2.0 ** (1.0 / p2) * max(u1, u2)


def _newton(g, m: float, tol: float, max_iter: int) -> tuple[float, int | None]:
    """Newton steps down onto the root of convex ``g`` from ``m`` right of it.

    Returns ``(root, steps)``, or ``(last iterate, None)`` when
    ``max_iter`` steps did not converge. Right of the root every step
    lands right of it again, so the iterates fall monotonically; the
    solve ends when ``g`` is no longer positive (to rounding) or a step
    is at most ``tol`` of the margin, which leaves the next error far
    below it.
    """
    for step in range(1, max_iter + 1):
        value, slope = g(m)
        if value <= 0:
            return m, step
        last, m = m, m - value / slope
        if not m < last:  # a step below one ulp
            return last, step
        if last - m <= tol * m:
            return m, step
    return m, None


def _root(g, r: float, p2: float, sd0: float, m_lo: float, clip: float,
          tol: float, max_iter: int) -> tuple[float | None, int | None]:
    """``(m, steps)``: the root of ``g`` in ``(m_lo, clip]`` by :func:`_newton`.

    ``(None, 0)`` when the root is at or past the clip (``g`` not yet
    positive there), ``(m_lo, 0)`` when it is at or below the lower end
    (``g`` already ≥ 0 there), and ``(last iterate, None)`` when
    ``max_iter`` Newton steps did not converge.
    """
    if not (m_lo < clip and g(clip)[0] > 0):
        return None, 0
    if g(m_lo)[0] >= 0:
        return m_lo, 0
    return _newton(g, min(clip, _newton_start(r, p2, sd0)), tol, max_iter)


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

    Without a test term the optimum is the root of the stationarity
    equation (see the module docstring): clipped when ``f`` is not yet
    positive at ``0.999·sd_max``, ``s_d0``'s end of the bracket when
    ``f`` is already ≥ 0 there, and otherwise found by Newton steps from
    the right, ending when a step is at most ``tol`` of the margin.
    Running out of ``max_iter`` steps raises
    :class:`~repro.errors.ConvergenceError`. A model with a test term
    takes a golden-section search over :meth:`TotalCostModel.sd_curve`
    instead. Either way the curve is built once per solve, and the trace
    records one ``sd_curve`` span.

    With a :class:`repro.robust.RetryBudget` the solver rides through
    both failure modes before giving up: a convergence stall restarts
    with a grown iteration cap, and a clipped optimum re-solves with the
    bracket expanded by :attr:`~repro.robust.RetryBudget.bracket_growth`.
    Final failures carry a :class:`repro.robust.ConvergenceReport`
    (stalls) or name the last bracket tried (clips).
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
    max_attempts = 1 if retry is None else retry.max_attempts

    if model.test_model is not None:
        def solve(hi: float) -> tuple[float, float, int, int]:
            return retrying_golden_min(fn, lo, hi, tol, max_iter, solver=solver,
                                       retry=retry, lo_floor=sd0)
    else:
        p2 = model.design_model.p2
        if curve.point is None:
            raise DomainError("optimal_sd takes a scalar operating point")
        r = _ratio(curve.point)
        g = _equation(r, p2, sd0)
        m_lo = lo - sd0

        def solve(hi: float) -> tuple[float, float, int, int]:
            clip = hi * (1 - 1e-3) - sd0
            cap = max_iter
            for attempt in range(1, max_attempts + 1):
                m, steps = _root(g, r, p2, sd0, m_lo, clip, tol, cap)
                if m is None:
                    return hi, math.nan, 0, 1  # the root is at or past the clip
                if steps is not None:
                    sd = lo if steps == 0 else max(sd0 + m, lo)
                    return sd, fn(sd), steps, attempt
                if attempt < max_attempts:
                    note_retry(solver, attempt, "ConvergenceError")
                    cap = max(cap + 1, int(cap * retry.iter_growth))
            best = sd0 + m
            raise ConvergenceError(
                f"Newton solve of the eq.-(4) stationarity equation did not "
                f"converge in {cap} iterations",
                report=ConvergenceReport(
                    solver=solver, attempts=max_attempts, iterations=cap,
                    last_bracket=(lo, best), best_x=best,
                    best_fx=fn(best) if lo <= best < math.inf else math.nan))

    hi = sd_max
    attempts_used = 0
    for expansion in range(1, max_attempts + 1):
        sd_opt, cost_opt, iters, attempts = solve(hi)
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


class _SharedSetup:
    """:func:`optimal_sd` at one model and ``sd_max``, for many operating points.

    The per-model constants (``p2``, ``s_d0``, the bracket's lower end
    and clip) are set up once; :meth:`solve` then sets up one operating
    point with :func:`repro.engine.pykernels.eq4_point` and runs it
    untraced, in plain floats: ``r``, the bracket tests and the Newton
    steps of :func:`optimal_sd`'s own root path, so ``sd_opt``
    and ``cost_opt`` are bit-identical to its. A model that is not the
    stock eq.-(4) model (:attr:`TotalCostModel.scalar_params` is
    ``None``), a test term, an ``sd_max`` at or below the lower end, an
    argument that is not a plain number in range, a clip, a stall and a
    cost that could leave the float range all re-run through
    :func:`optimal_sd` itself, which raises its exact error.
    """

    __slots__ = ("model", "sd_max", "params", "sd0", "p2", "lo", "m_lo",
                 "clip", "top")

    #: :func:`optimal_sd`'s defaults, which every caller of the setup uses.
    TOL = 1e-10
    MAX_ITER = 500

    def __init__(self, model: TotalCostModel, sd_max: float = 5000.0):
        self.model = model
        self.sd_max = sd_max
        params = model.scalar_params
        self.sd0 = sd0 = model.design_model.sd0
        self.p2 = model.design_model.p2
        self.lo = lo = sd0 * (1 + 1e-6) + 1e-9
        self.m_lo = lo - sd0
        if not (params is not None and params.test is None
                and type(sd_max) in (float, int) and lo < sd_max < _FAR):
            params = None
            sd_max = math.nan
        self.params = params
        self.top = sd_max * (1 - 1e-3)
        self.clip = self.top - sd0

    def solve(self, n_transistors, feature_um, n_wafers, yield_fraction,
              cost_per_cm2, cost: bool = True) -> tuple[float, float, int]:
        """``(sd_opt, cost_opt, iterations)`` as :func:`optimal_sd` gives them.

        ``cost=False`` skips the cost evaluation on the shared-setup
        path, where ``cost_opt`` is then NaN; the cost is still checked
        to stay in the float range, as :func:`optimal_sd` requires.
        """
        point = (n_transistors, feature_um, n_wafers, yield_fraction,
                 cost_per_cm2)
        found = self._shared(point, cost)
        if found is None:
            res = optimal_sd(self.model, *point, sd_max=self.sd_max)
            return res.sd_opt, res.cost_opt, res.iterations
        return found

    def _shared(self, point, cost: bool):
        """:meth:`solve` on the shared setup, or ``None`` where it re-runs."""
        params = self.params
        if params is None:
            return None
        for value in point:
            if type(value) is not float and type(value) is not int:
                return None
        model, sd0, p2, lo = self.model, self.sd0, self.p2, self.lo
        try:
            setup = pyk.eq4_point(*point, params,
                                  float(model.mask_cost(point[1])))
        except (ReproError, OverflowError):
            return None
        if setup.amplitude is None:
            return None
        r = _ratio(setup)
        m, steps = _root(_equation(r, p2, sd0), r, p2, sd0, self.m_lo,
                         self.clip, self.TOL, self.MAX_ITER)
        if m is None or steps is None:
            return None
        sd = lo if steps == 0 else max(sd0 + m, lo)
        if not sd <= self.top:
            return None
        # The cost's float-range checks at sd, with a margin for the
        # last-bit difference between this power and NumPy's.
        try:
            power = (sd - sd0) ** p2
            value = setup.terms(sd, power)[3]
        except (OverflowError, DomainError):
            return None
        if not (1.0 / _FAR < power < _FAR and value < _FAR):
            return None
        obs_metrics.set_gauge("optimize_optimal_sd_iterations", steps)
        if cost:
            value = float(model.sd_curve(*point)(sd))
        else:
            value = math.nan
        return sd, value, steps


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

    A golden-section search over
    :meth:`~repro.cost.generalized.GeneralizedCostModel.sd_curve`, which
    checks the fixed arguments once. ``retry`` hardens convergence
    stalls as in :func:`optimal_sd`.
    """
    sd0 = model.design_model.sd0
    lo = sd0 * (1 + 1e-6) + 1e-9
    if sd_max <= lo:
        raise DomainError(f"sd_max={sd_max} must exceed sd0={sd0}")

    sd_opt, cost_opt, iters, attempts = retrying_golden_min(
        model.sd_curve(n_transistors, feature_um, n_wafers), lo, sd_max, tol,
        max_iter,
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
    tried. Each volume is solved on one shared setup of the model
    (:class:`_SharedSetup`) with results bit-identical to
    :func:`optimal_sd`'s; with a ``retry`` budget every volume runs
    :func:`optimal_sd` itself, with the budget.
    """
    policy = ErrorPolicy.coerce(policy)
    if n_wafers_values is None:
        n_wafers_values = np.geomspace(1e3, 1e6, 13)
    volumes = [float(nw) for nw in np.asarray(n_wafers_values, dtype=float)]
    setup = _SharedSetup(model, sd_max)

    def solve(nw: float) -> tuple[float, OptimumResult]:
        if retry is not None:
            return nw, optimal_sd(model, n_transistors, feature_um, nw,
                                  yield_fraction, cost_per_cm2,
                                  sd_max=sd_max, retry=retry)
        sd_opt, cost_opt, iterations = setup.solve(
            n_transistors, feature_um, nw, yield_fraction, cost_per_cm2)
        return nw, OptimumResult(sd_opt=sd_opt, cost_opt=cost_opt,
                                 iterations=iterations,
                                 bracket=(setup.lo, sd_max))

    out, log = map_scalar(volumes, solve, policy=policy,
                          where="optimize.optimum.optimum_vs_volume",
                          equation="4", parameter="n_wafers",
                          value_of=float)
    log.finish()
    return out
