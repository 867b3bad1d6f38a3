"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors (``TypeError``, ``AttributeError`` and
friends propagate untouched).

The split mirrors the two ways a cost-model call can go wrong:

* the *arguments* are outside the model's mathematical domain
  (:class:`DomainError`) — e.g. a yield of 1.3, or a design density
  target denser than the full-custom bound ``s_d0`` of Maly's eq. (6);
* the *data* requested does not exist or is internally inconsistent
  (:class:`DataError` and its subclasses) — e.g. asking the Table A1
  registry for an unknown device, or an ITRS node outside the 1999
  roadmap horizon.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DomainError",
    "UnitError",
    "DataError",
    "UnknownRecordError",
    "InconsistentRecordError",
    "CalibrationError",
    "ConvergenceError",
    "ExecutionError",
    "CollectedErrors",
    "LayoutError",
    "LintError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class DomainError(ReproError, ValueError):
    """An argument lies outside the mathematical domain of a model.

    Also a :class:`ValueError` so that generic numeric call sites that
    guard with ``except ValueError`` keep working.
    """


class UnitError(ReproError, ValueError):
    """A quantity was supplied in an unknown or incompatible unit."""


class DataError(ReproError):
    """Base class for dataset access and consistency failures."""


class UnknownRecordError(DataError, KeyError):
    """A dataset lookup referenced a record that does not exist."""

    def __str__(self) -> str:  # KeyError.__str__ repr()s its arg; undo that.
        return ", ".join(str(a) for a in self.args)


class InconsistentRecordError(DataError, ValueError):
    """A dataset record violates an internal consistency invariant."""


class CalibrationError(ReproError, RuntimeError):
    """Model calibration failed (degenerate data, no feasible fit)."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solver failed to converge within its budget.

    Attributes
    ----------
    report:
        Optional :class:`repro.robust.ConvergenceReport` describing the
        failed run — iterations used, last bracket, best point found —
        attached by the hardened solvers so failures are debuggable.
    """

    def __init__(self, *args, report=None):
        super().__init__(*args)
        self.report = report


class ExecutionError(ReproError, RuntimeError):
    """The execution substrate, not the model, failed.

    Raised by :mod:`repro.serve` when it cannot run a request: a grid
    route without the NumPy backend, an oversized request body, an
    unknown route. Distinct from
    :class:`DomainError`: the *model* inputs were fine; the service
    could not evaluate them. The HTTP layer answers 503 unless the
    route picks a more specific status (404, 429).
    """


class CollectedErrors(ReproError):
    """Several deferred failures, gathered under ``ErrorPolicy.COLLECT``.

    Raised at the *end* of a sweep/series so one pass surfaces every
    infeasible point at once instead of dying on the first.

    Attributes
    ----------
    diagnostics:
        Tuple of :class:`repro.robust.Diagnostic` records, one per
        collected failure.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)

    def __str__(self) -> str:
        base = super().__str__()
        if not self.diagnostics:
            return base
        preview = "; ".join(str(d) for d in self.diagnostics[:3])
        more = len(self.diagnostics) - 3
        if more > 0:
            preview += f"; ... {more} more"
        return f"{base}: {preview}"


class LayoutError(ReproError, ValueError):
    """A layout object is malformed (negative extent, empty cell, ...)."""


class LintError(ReproError):
    """The static analyzer could not run (bad config, unreadable tree).

    Raised by :mod:`repro.lint` for *analyzer* failures — an unknown
    rule id in the config, an unparseable baseline file, a scan root
    with no python modules. Findings in the analyzed code are reported
    as :class:`repro.lint.Finding` records, never as exceptions.
    """
