"""Wire schemas for the :mod:`repro.serve` HTTP layer.

One set of frozen dataclasses is the *entire* contract: the server
routes parse requests with ``from_json`` and render responses with
``to_json``, and :mod:`repro.serve.client` uses the very same classes
in the opposite direction — there is no second, hand-maintained JSON
shape to drift out of sync.

The request classes mirror the :class:`repro.api.Scenario` facade
method for method: :data:`SCENARIO_ROUTES` maps every public
``Scenario`` method to its request class, and the ``API006`` lint rule
statically checks that each method's parameters are covered by the
mapped request's fields (same names, same unit suffixes). Adding a
facade method without a matching route schema fails the build.

This module is deliberately stdlib-only (``json`` + ``dataclasses``):
it must import on an interpreter without NumPy, where the server
still answers ``/evaluate``.
``ScenarioPayload.to_scenario`` is the single place the NumPy-backed
facade is touched, and it imports lazily.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from ..constants import ASSUMED_YIELD, MANUFACTURING_COST_PER_CM2_USD
from ..errors import DomainError

__all__ = [
    "SCENARIO_ROUTES",
    "ScenarioPayload",
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

#: Facade method name → request class name. The single source of truth
#: for the route table (``POST /<method>``) and for the ``API006``
#: parity rule, which reads this literal statically. Keep it a plain
#: ``{str: str}`` literal.
SCENARIO_ROUTES = {
    "evaluate": "EvaluateRequest",
    "sweep": "SweepRequest",
    "pareto": "ParetoRequest",
    "sensitivity": "SensitivityRequest",
    "optimal_sd": "OptimalSdRequest",
}

#: Accepted ``policy`` spellings (mirrors ``repro.robust.ErrorPolicy``
#: values without importing the enum into the wire layer).
_POLICIES = ("raise", "mask", "collect")


def _float_value(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"field {name!r} must be a number, "
                          f"got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise DomainError(f"field {name!r} is too large for a float") \
            from None


def _converter(fn, name):
    return lambda value: fn(value, name)


def _as_float(value, name) -> float:
    return _float_value(value, name)


def _as_opt_float(value, name):
    return None if value is None else _float_value(value, name)


def _as_int(value, name) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"field {name!r} must be an integer, "
                          f"got {type(value).__name__}")
    return value


def _as_opt_int(value, name):
    return None if value is None else _as_int(value, name)


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


def _as_policy(value, name) -> str:
    value = _as_str(value, name).lower()
    if value not in _POLICIES:
        known = ", ".join(_POLICIES)
        raise DomainError(f"unknown error policy {value!r}; known: {known}")
    return value


def _as_opt_floats(value, name):
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise DomainError(f"field {name!r} must be a list of numbers")
    return tuple(_float_value(v, name) for v in value)


def _as_floats(value, name):
    values = _as_opt_floats(value, name)
    return () if values is None else values


def _as_opt_strs(value, name):
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise DomainError(f"field {name!r} must be a list of strings")
    return tuple(_as_str(v, name) for v in value)


def _as_items(item_from_dict, name):
    def convert(value):
        if not isinstance(value, (list, tuple)):
            raise DomainError(f"field {name!r} must be a list of objects")
        return tuple(item_from_dict(v) for v in value)

    return convert


def _plain(value):
    """One field value in JSON-safe form, as :meth:`_Wire.to_dict` needs.

    Nested records become dicts, tuples become lists, and non-finite
    floats become ``None``: the same result as ``dataclasses.asdict``
    followed by a non-finite-to-``None`` pass, without the per-call
    field reflection and deep copies.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, _Wire):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


class _Wire:
    """Shared JSON plumbing for every frozen wire dataclass.

    Subclasses may provide ``_CONVERT`` — a ``{field name: callable}``
    plain class attribute (not a dataclass field) used by
    :meth:`from_dict` to validate and rebuild nested values. Each
    class's field layout is read once, on first use, into ``_LAYOUT``:
    the field names in order, the same names as a set, and one
    ``(name, required, converter)`` triple per field.
    """

    _CONVERT: dict = {}

    @classmethod
    def _layout(cls) -> tuple:
        """This class's ``_LAYOUT``, built on first use."""
        layout = cls.__dict__.get("_LAYOUT")
        if layout is None:
            fields = dataclasses.fields(cls)
            names = tuple(f.name for f in fields)
            parse = tuple(
                (f.name,
                 f.default is dataclasses.MISSING
                 and f.default_factory is dataclasses.MISSING,
                 cls._CONVERT.get(f.name))
                for f in fields)
            layout = cls._LAYOUT = (names, frozenset(names), parse)
        return layout

    def to_dict(self) -> dict:
        """The record as a JSON-safe dict (NaN/Inf become ``null``)."""
        return {name: _plain(getattr(self, name))
                for name in self._layout()[0]}

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
        if not isinstance(data, dict):
            raise DomainError(f"{cls.__name__}: expected a JSON object, "
                              f"got {type(data).__name__}")
        _, known, parse = cls._layout()
        if not known.issuperset(data):
            unknown = sorted(set(data) - known)
            raise DomainError(
                f"{cls.__name__}: unknown field(s) {', '.join(unknown)}")
        kwargs = {}
        for name, required, convert in parse:
            if name not in data:
                if required:
                    raise DomainError(
                        f"{cls.__name__}: missing required field {name!r}")
                continue
            value = data[name]
            kwargs[name] = convert(value) if convert is not None else value
        return cls(**kwargs)


@dataclass(frozen=True)
class ScenarioPayload(_Wire):
    """One :class:`repro.api.Scenario` operating point on the wire.

    Scalar fields only — the serve layer always prices under the
    paper's Figure-4 model configuration
    (:data:`repro.cost.PAPER_FIGURE4_MODEL`), so the model object never
    crosses the HTTP boundary. Field names and defaults match the
    facade dataclass exactly.
    """

    n_transistors: float
    feature_um: float
    sd: float = 300.0
    n_wafers: float = 5_000.0
    yield_fraction: float = ASSUMED_YIELD
    cost_per_cm2: float = MANUFACTURING_COST_PER_CM2_USD
    label: str = ""

    _CONVERT = {
        "n_transistors": _converter(_as_float, "n_transistors"),
        "feature_um": _converter(_as_float, "feature_um"),
        "sd": _converter(_as_float, "sd"),
        "n_wafers": _converter(_as_float, "n_wafers"),
        "yield_fraction": _converter(_as_float, "yield_fraction"),
        "cost_per_cm2": _converter(_as_float, "cost_per_cm2"),
        "label": _converter(_as_str, "label"),
    }

    @classmethod
    def from_scenario(cls, scenario) -> "ScenarioPayload":
        """The wire form of a facade :class:`~repro.api.Scenario`."""
        return cls(n_transistors=float(scenario.n_transistors),
                   feature_um=float(scenario.feature_um),
                   sd=float(scenario.sd),
                   n_wafers=float(scenario.n_wafers),
                   yield_fraction=float(scenario.yield_fraction),
                   cost_per_cm2=float(scenario.cost_per_cm2),
                   label=scenario.label)

    def to_scenario(self):
        """The NumPy-backed facade record (lazy :mod:`repro.api` import)."""
        from ..api import Scenario
        return Scenario(n_transistors=self.n_transistors,
                        feature_um=self.feature_um, sd=self.sd,
                        n_wafers=self.n_wafers,
                        yield_fraction=self.yield_fraction,
                        cost_per_cm2=self.cost_per_cm2, label=self.label)


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

    _CONVERT = {
        "where": _converter(_as_str, "where"),
        "equation": _converter(_as_str, "equation"),
        "parameter": _converter(_as_str, "parameter"),
        "index": _converter(_as_opt_int, "index"),
        "error_type": _converter(_as_str, "error_type"),
        "message": _converter(_as_str, "message"),
    }

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


def _diagnostics_field():
    return _as_items(DiagnosticPayload.from_dict, "diagnostics")


@dataclass(frozen=True)
class EvaluateRequest(_Wire):
    """``POST /evaluate`` — price one scenario or a batch.

    Accepts either ``{"scenario": {...}}`` (single point) or
    ``{"scenarios": [{...}, ...]}`` (batch); the single form is
    normalised to a one-element batch at parse time.
    """

    scenarios: tuple[ScenarioPayload, ...]
    policy: str = "raise"

    _CONVERT = {
        "scenarios": _as_items(ScenarioPayload.from_dict, "scenarios"),
        "policy": _converter(_as_policy, "policy"),
    }

    @classmethod
    def from_dict(cls, data):
        """Accept the single-``scenario`` sugar next to the batch form."""
        if isinstance(data, dict) and "scenario" in data:
            if "scenarios" in data:
                raise DomainError(
                    "EvaluateRequest: pass either 'scenario' or "
                    "'scenarios', not both")
            data = {**data}
            data["scenarios"] = [data.pop("scenario")]
        return super().from_dict(data)


@dataclass(frozen=True)
class SweepRequest(_Wire):
    """``POST /sweep`` — a 1-D cost sweep (``Scenario.sweep``)."""

    scenario: ScenarioPayload
    parameter: str = "sd"
    values: tuple[float, ...] | None = None
    policy: str = "raise"

    _CONVERT = {
        "scenario": ScenarioPayload.from_dict,
        "parameter": _converter(_as_str, "parameter"),
        "values": _converter(_as_opt_floats, "values"),
        "policy": _converter(_as_policy, "policy"),
    }


@dataclass(frozen=True)
class ParetoRequest(_Wire):
    """``POST /pareto`` — the non-dominated front (``Scenario.pareto``)."""

    scenario: ScenarioPayload
    values: tuple[float, ...] | None = None
    policy: str = "raise"

    _CONVERT = {
        "scenario": ScenarioPayload.from_dict,
        "values": _converter(_as_opt_floats, "values"),
        "policy": _converter(_as_policy, "policy"),
    }


@dataclass(frozen=True)
class SensitivityRequest(_Wire):
    """``POST /sensitivity`` — elasticities (``Scenario.sensitivity``)."""

    scenario: ScenarioPayload
    parameters: tuple[str, ...] | None = None
    rel_step: float = 0.05
    sd_max: float = 5000.0
    policy: str = "raise"

    _CONVERT = {
        "scenario": ScenarioPayload.from_dict,
        "parameters": _converter(_as_opt_strs, "parameters"),
        "rel_step": _converter(_as_float, "rel_step"),
        "sd_max": _converter(_as_float, "sd_max"),
        "policy": _converter(_as_policy, "policy"),
    }


@dataclass(frozen=True)
class OptimalSdRequest(_Wire):
    """``POST /optimal_sd`` — cost-minimising ``s_d``
    (``Scenario.optimal_sd``)."""

    scenario: ScenarioPayload
    sd_max: float = 5000.0
    tol: float = 1e-10
    max_iter: int = 500
    retry: bool = False

    _CONVERT = {
        "scenario": ScenarioPayload.from_dict,
        "sd_max": _converter(_as_float, "sd_max"),
        "tol": _converter(_as_float, "tol"),
        "max_iter": _converter(_as_int, "max_iter"),
        "retry": _converter(_as_bool, "retry"),
    }


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

    _CONVERT = {
        "label": _converter(_as_str, "label"),
        "cost_per_transistor_usd": _converter(_as_opt_float,
                                              "cost_per_transistor_usd"),
        "area_cm2": _converter(_as_opt_float, "area_cm2"),
        "die_cost_usd": _converter(_as_opt_float, "die_cost_usd"),
        "ok": _converter(_as_bool, "ok"),
    }


@dataclass(frozen=True)
class EvaluateResponse(_Wire):
    """``POST /evaluate`` result: one point per requested scenario.

    Under COLLECT with failures, ``results`` is empty and
    ``diagnostics`` carries every deferred failure (aggregate
    semantics, mirroring :class:`repro.errors.CollectedErrors`).
    """

    results: tuple[EvaluatedPoint, ...]
    backend: str = "numpy"
    diagnostics: tuple[DiagnosticPayload, ...] = ()

    _CONVERT = {
        "results": _as_items(EvaluatedPoint.from_dict, "results"),
        "backend": _converter(_as_str, "backend"),
        "diagnostics": _as_items(DiagnosticPayload.from_dict, "diagnostics"),
    }


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

    _CONVERT = {
        "parameter": _converter(_as_str, "parameter"),
        "x": _converter(_as_floats, "x"),
        "cost": lambda v: tuple(
            None if c is None else _float_value(c, "cost") for c in v),
        "x_opt": _converter(_as_opt_float, "x_opt"),
        "cost_opt": _converter(_as_opt_float, "cost_opt"),
        "n_masked": _converter(_as_int, "n_masked"),
        "diagnostics": _as_items(DiagnosticPayload.from_dict, "diagnostics"),
    }


@dataclass(frozen=True)
class ParetoPoint(_Wire):
    """One non-dominated design point (wire mirror of
    :class:`repro.optimize.DesignPoint`)."""

    sd: float
    die_area_cm2: float
    transistor_cost_usd: float
    design_cost_usd: float

    _CONVERT = {
        "sd": _converter(_as_float, "sd"),
        "die_area_cm2": _converter(_as_float, "die_area_cm2"),
        "transistor_cost_usd": _converter(_as_float, "transistor_cost_usd"),
        "design_cost_usd": _converter(_as_float, "design_cost_usd"),
    }


def _as_opt_pareto_point(value):
    return None if value is None else ParetoPoint.from_dict(value)


@dataclass(frozen=True)
class ParetoResponse(_Wire):
    """``POST /pareto`` result: the non-dominated front plus its knee.

    ``knee`` is ``None`` when the front is empty (every candidate
    failed under MASK/COLLECT — see ``diagnostics``).
    """

    front: tuple[ParetoPoint, ...]
    knee: ParetoPoint | None
    diagnostics: tuple[DiagnosticPayload, ...] = ()

    _CONVERT = {
        "front": _as_items(ParetoPoint.from_dict, "front"),
        "knee": _as_opt_pareto_point,
        "diagnostics": _as_items(DiagnosticPayload.from_dict, "diagnostics"),
    }


@dataclass(frozen=True)
class SensitivityResponse(_Wire):
    """``POST /sensitivity`` result: parameter → elasticity.

    A ``None`` elasticity marks a parameter whose perturbed solve
    failed under MASK (see ``diagnostics``).
    """

    elasticities: dict
    diagnostics: tuple[DiagnosticPayload, ...] = ()

    _CONVERT = {
        "elasticities": lambda v: {
            _as_str(k, "elasticities"): (
                None if e is None else _float_value(e, "elasticities"))
            for k, e in dict(v).items()},
        "diagnostics": _as_items(DiagnosticPayload.from_dict, "diagnostics"),
    }


@dataclass(frozen=True)
class OptimalSdResponse(_Wire):
    """``POST /optimal_sd`` result (wire mirror of
    :class:`repro.optimize.OptimumResult`)."""

    sd_opt: float
    cost_opt: float
    iterations: int
    bracket: tuple[float, float]
    attempts: int = 1

    _CONVERT = {
        "sd_opt": _converter(_as_float, "sd_opt"),
        "cost_opt": _converter(_as_float, "cost_opt"),
        "iterations": _converter(_as_int, "iterations"),
        "bracket": _converter(_as_floats, "bracket"),
        "attempts": _converter(_as_int, "attempts"),
    }


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

    _CONVERT = {
        "code": _converter(_as_str, "code"),
        "message": _converter(_as_str, "message"),
        "diagnostics": _as_items(DiagnosticPayload.from_dict, "diagnostics"),
        "retry_after_s": _converter(_as_opt_float, "retry_after_s"),
    }
