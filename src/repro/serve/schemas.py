"""Wire schemas for the :mod:`repro.serve` HTTP layer.

One set of frozen dataclasses is the whole contract: the server routes
parse requests with ``from_json`` and render responses with
``to_json``, and :mod:`repro.serve.client` uses the very same classes
in the opposite direction.

The requests are the facade's own types. A scenario on the wire is a
:class:`repro.api.Scenario`: its fields but ``model`` and ``wafer``.
The server prices the paper's Figure-4 model, so encoding a scenario
with another model or a wafer override raises :class:`DomainError`
naming the field, rather than pricing something else. Each route's
request class is derived from the signature of the facade method it
serves (``/evaluate`` from :func:`repro.api.evaluate_many`, every other
route from the same-named ``Scenario`` method): a ``scenario`` field in
place of ``self``, then the method's parameters but ``diagnostics``,
in order, with their defaults. So a request cannot fall out of step
with its method. Only ``retry`` has another form on the wire: a bool,
where the facade takes a :class:`repro.robust.RetryBudget`.

Every field is parsed by its annotation: ``float``, ``int``, ``bool``,
``str``, ``ErrorPolicy``, a wire record or ``Scenario``, and
``X | None``, ``tuple[X, ...]``, ``Sequence[X]``, ``Iterable[X]`` and
``dict[str, X]`` of those. The response classes are written out below.

This module imports no NumPy, and neither does pricing a scenario, so
the server still answers ``/evaluate`` on an interpreter without it.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from dataclasses import dataclass

from ..api import Scenario, evaluate_many
from ..cost.total import PAPER_FIGURE4_MODEL
from ..errors import DomainError
from ..robust.policy import ErrorPolicy

__all__ = [
    "DiagnosticPayload",
    "EvaluateRequest",
    "SweepRequest",
    "ParetoRequest",
    "SensitivityRequest",
    "OptimalSdRequest",
    "EvaluatedPoint",
    "EvaluateResponse",
    "SweepResponse",
    "ParetoPoint",
    "ParetoResponse",
    "SensitivityResponse",
    "OptimalSdResponse",
    "ErrorResponse",
]


def _float_value(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"field {name!r} must be a number, "
                          f"got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise DomainError(f"field {name!r} is too large for a float") \
            from None


def _as_int(value, name) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"field {name!r} must be an integer, "
                          f"got {type(value).__name__}")
    return value


def _as_bool(value, name) -> bool:
    if not isinstance(value, bool):
        raise DomainError(f"field {name!r} must be a boolean, "
                          f"got {type(value).__name__}")
    return value


def _as_str(value, name) -> str:
    if not isinstance(value, str):
        raise DomainError(f"field {name!r} must be a string, "
                          f"got {type(value).__name__}")
    return value


def _as_policy(value, name) -> ErrorPolicy:
    value = _as_str(value, name).lower()
    try:
        return ErrorPolicy(value)
    except ValueError:
        known = ", ".join(policy.value for policy in ErrorPolicy)
        raise DomainError(
            f"unknown error policy {value!r}; known: {known}") from None


#: The parser of each scalar annotation.
_SCALARS = {"float": _float_value, "int": _as_int, "bool": _as_bool,
            "str": _as_str, "ErrorPolicy": _as_policy}
#: What a list of each scalar is called in an error message.
_LISTS = {"float": "numbers", "str": "strings"}


def _parser(annotation: str, name: str):
    """What parses field ``name``'s JSON value, from the field's
    annotation string; ``None`` where the value is kept as it is
    (``object``)."""
    if annotation == "object":
        return None
    if annotation.endswith(" | None"):
        parse = _parser(annotation.removesuffix(" | None"), name)
        return lambda value: None if value is None else parse(value)
    outer, _, args = annotation.partition("[")
    if args:
        item, *more = args.removesuffix("]").split(", ")
        if outer == "dict":  # dict[str, X]
            parse = _parser(more[0], name)

            def mapping(value):
                if not isinstance(value, dict):
                    raise DomainError(f"field {name!r} must be an object")
                return {_as_str(k, name): parse(v) for k, v in value.items()}
            return mapping
        parse = _parser(item, name)
        kind = _LISTS.get(item.removesuffix(" | None"), "objects")

        def items(value):
            if not isinstance(value, (list, tuple)):
                raise DomainError(f"field {name!r} must be a list of {kind}")
            return tuple(parse(v) for v in value)
        return items
    scalar = _SCALARS.get(annotation)
    if scalar is not None:
        return lambda value: scalar(value, name)
    if annotation == "Scenario":
        return _SCENARIO.decode
    return globals()[annotation].from_dict


def _plain(value):
    """One field value in JSON-safe form, as :meth:`_Wire.to_dict` needs.

    Nested records become dicts, tuples become lists, an
    :class:`ErrorPolicy` its value, and non-finite floats become
    ``None``: the same result as ``dataclasses.asdict`` followed by a
    non-finite-to-``None`` pass, without the per-call field reflection
    and deep copies.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, _Wire):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, ErrorPolicy):
        return value.value
    if isinstance(value, Scenario):
        return _scenario_dict(value)
    return value


class _Layout:
    """One dataclass's wire form, read once from its fields.

    ``names`` are the field names in order and ``known`` the same names
    as a set; ``fields`` holds one ``(name, required, parse)`` triple
    per field, ``parse`` chosen by the field's annotation.
    """

    __slots__ = ("cls", "names", "known", "fields")

    def __init__(self, cls, fields) -> None:
        self.cls = cls
        self.names = tuple(f.name for f in fields)
        self.known = frozenset(self.names)
        self.fields = tuple(
            (f.name,
             f.default is dataclasses.MISSING
             and f.default_factory is dataclasses.MISSING,
             _parser(f.type, f.name))
            for f in fields)

    def decode(self, data):
        """Build the record from a parsed dict; strict about keys."""
        name = self.cls.__name__
        if not isinstance(data, dict):
            raise DomainError(f"{name}: expected a JSON object, "
                              f"got {type(data).__name__}")
        if not self.known.issuperset(data):
            unknown = sorted(set(data) - self.known)
            raise DomainError(f"{name}: unknown field(s) {', '.join(unknown)}")
        kwargs = {}
        for field, required, parse in self.fields:
            if field not in data:
                if required:
                    raise DomainError(
                        f"{name}: missing required field {field!r}")
                continue
            value = data[field]
            kwargs[field] = parse(value) if parse is not None else value
        return self.cls(**kwargs)

    def encode(self, record) -> dict:
        """The record as a JSON-safe dict (NaN/Inf become ``null``)."""
        return {name: _plain(getattr(record, name)) for name in self.names}


#: A wire scenario: every :class:`Scenario` field but ``model`` and
#: ``wafer``, which the server does not take.
_SCENARIO = _Layout(Scenario, [f for f in dataclasses.fields(Scenario)
                               if f.name not in ("model", "wafer")])


def _scenario_dict(scenario: Scenario) -> dict:
    """The wire form of a facade scenario, each field parsed as the
    server parses it (an ``int`` count is sent as a float). A scenario
    the server would price differently raises :class:`DomainError`."""
    if scenario.model != PAPER_FIGURE4_MODEL:
        raise DomainError(
            "Scenario field 'model' does not cross the wire: the server "
            "prices PAPER_FIGURE4_MODEL only")
    if scenario.wafer is not None:
        raise DomainError(
            "Scenario field 'wafer' does not cross the wire: the server "
            "prices PAPER_FIGURE4_MODEL's own wafer only")
    return {name: _plain(parse(getattr(scenario, name)))
            for name, _, parse in _SCENARIO.fields}


class _Wire:
    """Shared JSON plumbing for every frozen wire dataclass; each
    class's :class:`_Layout` is read from its fields on first use."""

    @classmethod
    def _layout(cls) -> _Layout:
        """This class's ``_LAYOUT``, built on first use."""
        layout = cls.__dict__.get("_LAYOUT")
        if layout is None:
            layout = cls._LAYOUT = _Layout(cls, dataclasses.fields(cls))
        return layout

    def to_dict(self) -> dict:
        """The record as a JSON-safe dict (NaN/Inf become ``null``)."""
        return self._layout().encode(self)

    def to_json(self) -> str:
        """The record as a canonical (sorted-key) JSON document."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: "str | bytes"):
        """Parse a JSON document (text, or UTF-8 bytes); :class:`DomainError`
        on malformed input."""
        if isinstance(text, (bytes, bytearray)):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DomainError(
                    f"{cls.__name__}: invalid JSON: not UTF-8: {exc}") \
                    from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{cls.__name__}: invalid JSON: {exc}") from exc
        except RecursionError:
            raise DomainError(
                f"{cls.__name__}: invalid JSON: nested too deeply") from None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data):
        """Build the record from a parsed dict; strict about keys."""
        return cls._layout().decode(data)


# -- requests, derived from the facade -----------------------------------------

#: ``POST /<route>`` → the request class it parses, filled in by
#: :func:`_request`.
_ROUTES: dict[str, type] = {}

#: The parameters whose wire form differs from the facade's, with the
#: wire annotation and default: ``retry`` is a bool on the wire, and
#: the service passes :data:`repro.robust.DEFAULT_RETRY_BUDGET` for true.
_WIRE_FORMS = {"retry": ("bool", False)}


class _Batch(_Wire):
    """A request over ``scenarios`` that also takes a single
    ``{"scenario": {...}}``, as a one-element batch."""

    @classmethod
    def from_dict(cls, data):
        """Accept the single-``scenario`` sugar next to the batch form."""
        if isinstance(data, dict) and "scenario" in data:
            if "scenarios" in data:
                raise DomainError(
                    f"{cls.__name__}: pass either 'scenario' or "
                    "'scenarios', not both")
            data = {**data}
            data["scenarios"] = [data.pop("scenario")]
        return super().from_dict(data)


def _request(route: str, method) -> type:
    """The frozen request class of ``POST /<route>``, derived from
    ``method``'s signature: a ``Scenario`` method's ``self`` becomes the
    ``scenario`` field, the output-only ``diagnostics`` is left out, and
    every other parameter is a field of the same name, annotation and
    default (:data:`_WIRE_FORMS` aside). The class is named after the
    route and documented by the method."""
    fields = []
    for param in inspect.signature(method).parameters.values():
        if param.name == "self":
            fields.append(("scenario", "Scenario"))
        elif param.name != "diagnostics":
            annotation, default = _WIRE_FORMS.get(
                param.name, (param.annotation, param.default))
            fields.append((param.name, annotation)
                          if default is inspect.Parameter.empty
                          else (param.name, annotation, default))
    base = _Batch if fields[0][0] == "scenarios" else _Wire
    cls = dataclasses.make_dataclass(
        route.title().replace("_", "") + "Request", fields, bases=(base,),
        frozen=True, namespace={"__module__": __name__,
                                "__doc__": method.__doc__})
    _ROUTES[route] = cls
    return cls


EvaluateRequest = _request("evaluate", evaluate_many)
SweepRequest = _request("sweep", Scenario.sweep)
ParetoRequest = _request("pareto", Scenario.pareto)
SensitivityRequest = _request("sensitivity", Scenario.sensitivity)
OptimalSdRequest = _request("optimal_sd", Scenario.optimal_sd)


# -- responses -----------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticPayload(_Wire):
    """Wire mirror of :class:`repro.robust.Diagnostic` (field for field)."""

    where: str
    equation: str
    parameter: str
    value: object
    index: int | None
    error_type: str
    message: str

    @classmethod
    def from_diagnostic(cls, diag) -> "DiagnosticPayload":
        """Convert a :class:`repro.robust.Diagnostic` record.

        ``value`` is kept when JSON-representable and stringified
        otherwise, so arbitrary offending values survive the wire.
        """
        value = diag.value
        if not (value is None or isinstance(value, (int, float, str, bool))):
            value = repr(value)
        return cls(where=diag.where, equation=diag.equation,
                   parameter=diag.parameter, value=value, index=diag.index,
                   error_type=diag.error_type, message=diag.message)


@dataclass(frozen=True)
class EvaluatedPoint(_Wire):
    """One priced scenario inside an :class:`EvaluateResponse`.

    ``cost_per_transistor_usd`` / ``die_cost_usd`` are ``None`` when
    the point was masked under the MASK policy (then ``ok`` is false).
    """

    label: str
    cost_per_transistor_usd: float | None
    area_cm2: float | None
    die_cost_usd: float | None
    ok: bool


@dataclass(frozen=True)
class EvaluateResponse(_Wire):
    """``POST /evaluate`` result: one point per requested scenario.

    Under COLLECT with failures, ``results`` is empty and
    ``diagnostics`` carries every deferred failure (aggregate
    semantics, mirroring :class:`repro.errors.CollectedErrors`).
    """

    results: tuple[EvaluatedPoint, ...]
    backend: str = "python"
    diagnostics: tuple[DiagnosticPayload, ...] = ()


@dataclass(frozen=True)
class SweepResponse(_Wire):
    """``POST /sweep`` result: the cost curve plus its minimum.

    ``cost`` entries are ``None`` where the MASK policy dropped a
    point; ``x_opt``/``cost_opt`` are ``None`` when every point was
    masked (see ``diagnostics``).
    """

    parameter: str
    x: tuple[float, ...]
    cost: tuple[float | None, ...]
    x_opt: float | None
    cost_opt: float | None
    n_masked: int = 0
    diagnostics: tuple[DiagnosticPayload, ...] = ()


@dataclass(frozen=True)
class ParetoPoint(_Wire):
    """One non-dominated design point (wire mirror of
    :class:`repro.optimize.DesignPoint`)."""

    sd: float
    die_area_cm2: float
    transistor_cost_usd: float
    design_cost_usd: float


@dataclass(frozen=True)
class ParetoResponse(_Wire):
    """``POST /pareto`` result: the non-dominated front plus its knee.

    ``knee`` is ``None`` when the front is empty (every candidate
    failed under MASK/COLLECT — see ``diagnostics``).
    """

    front: tuple[ParetoPoint, ...]
    knee: ParetoPoint | None
    diagnostics: tuple[DiagnosticPayload, ...] = ()


@dataclass(frozen=True)
class SensitivityResponse(_Wire):
    """``POST /sensitivity`` result: parameter → elasticity.

    A ``None`` elasticity marks a parameter whose perturbed solve
    failed under MASK (see ``diagnostics``).
    """

    elasticities: dict[str, float | None]
    diagnostics: tuple[DiagnosticPayload, ...] = ()


@dataclass(frozen=True)
class OptimalSdResponse(_Wire):
    """``POST /optimal_sd`` result (wire mirror of
    :class:`repro.optimize.OptimumResult`)."""

    sd_opt: float
    cost_opt: float
    iterations: int
    bracket: tuple[float, float]
    attempts: int = 1


@dataclass(frozen=True)
class ErrorResponse(_Wire):
    """Any non-2xx body: the error-taxonomy code plus a message.

    ``code`` is the :mod:`repro.errors` exception class name
    (``"DomainError"``, ``"ConvergenceError"``, ...), so clients can
    branch on the library's taxonomy without string-matching messages.
    ``retry_after_s`` is set on 429 responses only.
    """

    code: str
    message: str
    diagnostics: tuple[DiagnosticPayload, ...] = ()
    retry_after_s: float | None = None
