"""Provenance: which equation, parameters, and data produced a number.

Cost-model outputs are only trustworthy when each one can be traced
back to its inputs — the property that makes tools like CATCH or
Chiplet Actuary auditable. This module keeps a process-local *ledger*
of :class:`Provenance` records, one per model evaluation: the paper
equation applied (``"3"``, ``"4"``, ... ``"7"``), the evaluating
function, the parameter values (arrays summarised, not copied), and —
for dataset-backed results — the dataset name and row identifiers.

Records can additionally be *attached* to returned result objects
(:func:`attach` / :func:`provenance_of`), so a ``SweepResult`` or
``OptimumResult`` carries its own audit trail.

Recording is gated on the global observability flag; with
observability off the ledger stays empty and the hot-path cost is one
branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import trace as _trace

__all__ = [
    "Provenance",
    "ProvenanceLedger",
    "attach",
    "get_ledger",
    "provenance_of",
    "record_provenance",
    "summarize_value",
]

_ATTR = "_repro_provenance"


def summarize_value(value):
    """Collapse a parameter value to a small JSON-friendly summary.

    Scalars pass through; array-likes become a ``{"shape", "min",
    "max"}`` dict so the ledger never copies a sweep grid; everything
    else is ``repr``-ed.
    """
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    shape = getattr(value, "shape", None)
    if shape is not None and getattr(value, "size", 0) > 0:
        try:
            return {
                "shape": list(shape),
                "min": float(value.min()),
                "max": float(value.max()),
            }
        except (TypeError, ValueError):
            pass
    return repr(value)


@dataclass(frozen=True)
class Provenance:
    """The audit record of one model evaluation.

    Attributes
    ----------
    source:
        Dotted name of the evaluating function
        (``"cost.total.TotalCostModel.transistor_cost"``).
    equation:
        Paper equation id (``"1"``–``"7"``) or a section tag
        (``"s2.5"``) for extensions that have no numbered equation.
    params:
        Parameter name → summarised value at the evaluation point.
    dataset:
        Name of the backing dataset, when one fed the result.
    rows:
        Identifiers of the dataset rows used (Table A1 indices,
        roadmap years, ...).
    """

    source: str
    equation: str
    params: dict = field(default_factory=dict)
    dataset: str | None = None
    rows: tuple | None = None

    def to_dict(self) -> dict:
        """The record as a JSON-friendly dict (the export payload)."""
        return {"source": self.source, "equation": self.equation,
                "params": self.params, "dataset": self.dataset,
                "rows": None if self.rows is None else list(self.rows)}


@dataclass
class ProvenanceLedger:
    """Bounded, append-only store of provenance records."""

    max_records: int = 10_000
    records: list[Provenance] = field(default_factory=list)
    dropped: int = 0

    def record(self, prov: Provenance) -> None:
        """Append one record (or count it as dropped past the cap)."""
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return
        self.records.append(prov)

    def reset(self) -> None:
        """Forget every record."""
        self.records.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.records)

    def by_equation(self, equation: str) -> list[Provenance]:
        """All records produced by one paper equation."""
        return [r for r in self.records if r.equation == equation]

    def by_source(self, source: str) -> list[Provenance]:
        """All records whose source contains ``source`` as a substring."""
        return [r for r in self.records if source in r.source]

    def equations_used(self) -> list[str]:
        """Distinct equation ids in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.equation, None)
        return list(seen)


_LEDGER = ProvenanceLedger()


def get_ledger() -> ProvenanceLedger:
    """The process-global provenance ledger."""
    return _LEDGER


def record_provenance(source: str, equation: str, params: dict | None = None,
                      dataset: str | None = None,
                      rows: tuple | None = None) -> Provenance | None:
    """Record one evaluation in the ledger iff observability is enabled.

    Parameter values are passed through :func:`summarize_value`.
    Returns the stored record, or ``None`` when observability is off.
    """
    if not _trace._ENABLED:
        return None
    prov = Provenance(
        source=source,
        equation=equation,
        params={k: summarize_value(v) for k, v in (params or {}).items()},
        dataset=dataset,
        rows=rows,
    )
    _LEDGER.record(prov)
    return prov


def attach(obj, prov: Provenance | None):
    """Attach a provenance record to a result object.

    Works on frozen dataclasses (via ``object.__setattr__``); silently
    does nothing for ``None`` records or objects that reject
    attributes (e.g. plain floats), so call sites stay unconditional.
    Returns ``obj`` for chaining.
    """
    if prov is None:
        return obj
    try:
        object.__setattr__(obj, _ATTR, prov)
    except (AttributeError, TypeError):
        pass
    return obj


def provenance_of(obj) -> Provenance | None:
    """The provenance record attached to ``obj``, or ``None``."""
    return getattr(obj, _ATTR, None)
