"""Robustness layer: error policies, hardened solvers, quarantine, chaos.

Four tools, one contract — the library degrades gracefully and fails
cleanly:

* :class:`ErrorPolicy` + :class:`Diagnostic` — sweeps and series accept
  a policy so one infeasible grid point becomes a NaN-masked entry with
  an attached diagnostic (MASK), a deferred aggregate failure
  (COLLECT), or the historical immediate raise (RAISE, the default);
* :class:`RetryBudget` + :class:`ConvergenceReport` — the iterative
  solvers expand brackets and restart from perturbed bounds before
  failing, and when they do fail the
  :class:`~repro.errors.ConvergenceError` carries a report;
* :class:`QuarantineReport` — lenient CSV loading collects malformed
  rows instead of failing the import;
* :mod:`repro.robust.faultinject` — deterministic corrupted-input and
  forced-failure generators powering the chaos test suite.

All robustness events (masked points, retries, quarantined rows) land
on the :mod:`repro.obs` metrics/trace grid when observability is on.
See ``docs/robustness.md`` for the guide.
"""

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "faultinject": (
        "FAULT_MODES", "FaultInjector", "corrupt", "corrupted_calls", "flaky",
    ),
    "policy": ("Diagnostic", "DiagnosticLog", "ErrorPolicy"),
    "quarantine": ("QuarantinedRow", "QuarantineReport"),
    "retry": ("DEFAULT_RETRY_BUDGET", "ConvergenceReport", "RetryBudget"),
    "solvers": ("golden_min", "retrying_golden_min"),
})

__all__ = [
    "golden_min",
    "retrying_golden_min",
    "ErrorPolicy",
    "Diagnostic",
    "DiagnosticLog",
    "RetryBudget",
    "ConvergenceReport",
    "DEFAULT_RETRY_BUDGET",
    "QuarantinedRow",
    "QuarantineReport",
    "FAULT_MODES",
    "corrupt",
    "corrupted_calls",
    "FaultInjector",
    "flaky",
]
