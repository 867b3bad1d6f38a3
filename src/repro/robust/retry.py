"""Solver hardening: retry budgets and convergence reports.

The scalar solvers (:func:`repro.optimize.optimal_sd`,
:func:`repro.economics.profit_optimal_sd`) and the eq.-(6) calibration
search can fail for recoverable reasons: a bracket too narrow for the
optimum, an unlucky starting interval, an iteration cap one notch too
low. :class:`RetryBudget` describes how hard a solver may try before
giving up — bracket expansion, restart with perturbed bounds, extra
iterations — and :class:`ConvergenceReport` records what the solver
actually did, so a final :class:`repro.errors.ConvergenceError` is
debuggable instead of bare.

Retries are deterministic: the bound perturbations come from the fixed
:attr:`RetryBudget.perturb_fraction` schedule, never from a global RNG,
so a failing configuration fails (and then succeeds) identically on
every run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DomainError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

__all__ = ["RetryBudget", "ConvergenceReport", "DEFAULT_RETRY_BUDGET"]


@dataclass(frozen=True)
class RetryBudget:
    """How much extra work a solver may spend before declaring failure.

    Attributes
    ----------
    max_attempts:
        Total solve attempts (1 = the plain un-hardened call).
    bracket_growth:
        Multiplier applied to the upper search bound on each
        bracket-expansion retry (for "optimum clipped at sd_max"-style
        failures).
    perturb_fraction:
        Relative inward perturbation of the lower bound on each restart
        (for convergence stalls near a divergence); the k-th retry
        perturbs by ``k * perturb_fraction``.
    iter_growth:
        Multiplier applied to the iteration cap on each retry.
    """

    max_attempts: int = 3
    bracket_growth: float = 4.0
    perturb_fraction: float = 0.05
    iter_growth: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise DomainError(f"max_attempts must be >= 1; got {self.max_attempts}")
        if self.bracket_growth < 1.0:
            raise DomainError(f"bracket_growth must be >= 1; got {self.bracket_growth}")
        if not 0.0 <= self.perturb_fraction < 1.0:
            raise DomainError(
                f"perturb_fraction must lie in [0, 1); got {self.perturb_fraction}")
        if self.iter_growth < 1.0:
            raise DomainError(f"iter_growth must be >= 1; got {self.iter_growth}")

    def attempts(self) -> range:
        """Iterate attempt indices ``0 .. max_attempts-1``."""
        return range(self.max_attempts)


#: The budget the hardened call sites use when asked to retry.
DEFAULT_RETRY_BUDGET = RetryBudget()


@dataclass(frozen=True)
class ConvergenceReport:
    """What an iterative solve actually did — attached to failures.

    Attributes
    ----------
    solver:
        Dotted name of the solver (``"optimize.optimum.optimal_sd"``).
    attempts:
        Solve attempts consumed (1 when no retry budget was in play).
    iterations:
        Iterations used by the *last* attempt.
    last_bracket:
        Search interval of the last attempt ``(lo, hi)``.
    best_x:
        Best abscissa seen across all attempts (NaN when none).
    best_fx:
        Objective value at :attr:`best_x` (NaN when none).
    """

    solver: str
    attempts: int
    iterations: int
    last_bracket: tuple[float, float]
    best_x: float
    best_fx: float

    def __str__(self) -> str:
        lo, hi = self.last_bracket
        return (f"{self.solver}: {self.attempts} attempt(s), "
                f"{self.iterations} iterations, last bracket "
                f"[{lo:.6g}, {hi:.6g}], best f({self.best_x:.6g}) = {self.best_fx:.6g}")


def note_retry(solver: str, attempt: int, reason: str) -> None:
    """Record one retry on the obs grid (counter + span annotation)."""
    obs_metrics.inc("robust_retry_attempts_total", labels={"solver": solver})
    span = obs_trace.current_span()
    if span is not None:
        span.set_attr("robust.retry.attempt", attempt)
        span.set_attr("robust.retry.reason", reason)
