"""Wire encoding and decoding, against their reference forms.

``_Wire.to_dict`` and ``from_dict`` read each class's field layout once
instead of reflecting on every call. These properties pin them to the
reflective forms they replace: ``to_json`` is byte-identical to
``json.dumps(_jsonable(dataclasses.asdict(x)), sort_keys=True)`` for
every wire class, with NaN, ±inf, −0.0, ``None`` and non-ASCII text
drawn on purpose, and ``from_dict`` builds the same record, or raises
the same :class:`DomainError` message, as the field-by-field loop.
"""

import dataclasses
import json
import math
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DomainError
from repro.serve import EvaluateRequest, schemas
from repro.serve.schemas import ScenarioPayload

WIRE_CLASSES = [
    obj for obj in (getattr(schemas, name) for name in schemas.__all__)
    if isinstance(obj, type) and issubclass(obj, schemas._Wire)]


def _jsonable(value):
    """The reference: recursively replace non-finite floats with None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _reference_from_dict(cls, data):
    """The reference: the field-by-field ``dataclasses.fields`` loop."""
    if not isinstance(data, dict):
        raise DomainError(f"{cls.__name__}: expected a JSON object, "
                          f"got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(data) - {f.name for f in fields})
    if unknown:
        raise DomainError(
            f"{cls.__name__}: unknown field(s) {', '.join(unknown)}")
    kwargs = {}
    for f in fields:
        if f.name not in data:
            if (f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING):
                raise DomainError(
                    f"{cls.__name__}: missing required field {f.name!r}")
            continue
        convert = cls._CONVERT.get(f.name)
        value = data[f.name]
        kwargs[f.name] = convert(value) if convert is not None else value
    return cls(**kwargs)


FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308])
TEXT = st.text(max_size=12) | st.sampled_from(
    ["", "fig4", "0.18 µm — Ω", "日本語", "\ud83d", "\x00\n\"\\"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | TEXT,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=8)


def _strategy(tp):
    """A strategy for one annotated field type of a wire class."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is float:
        return FLOATS
    if tp is int:
        return st.integers()
    if tp is bool:
        return st.booleans()
    if tp is str:
        return TEXT
    if tp is object:
        return JSON_VALUES
    if tp is dict:
        return st.dictionaries(TEXT, st.none() | FLOATS, max_size=3)
    if tp is type(None):
        return st.none()
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*(_strategy(a) for a in args))
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(_strategy(args[0]), max_size=3).map(tuple)
        return st.tuples(*(_strategy(a) for a in args))
    if isinstance(tp, type) and issubclass(tp, schemas._Wire):
        return _records(tp)
    raise TypeError(f"no strategy for {tp!r}")


def _records(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{
        f.name: st.deferred(lambda name=f.name: _strategy(hints[name]))
        for f in dataclasses.fields(cls)})


ANY_RECORD = st.one_of(*(_records(cls) for cls in WIRE_CLASSES))


def test_every_wire_class_is_covered():
    assert len(WIRE_CLASSES) == 15
    assert schemas.ErrorResponse in WIRE_CLASSES


class TestEncoding:
    @settings(max_examples=400, deadline=None)
    @given(ANY_RECORD)
    def test_to_json_matches_the_reflective_form(self, record):
        expected = json.dumps(_jsonable(dataclasses.asdict(record)),
                              sort_keys=True)
        assert record.to_json() == expected

    @settings(max_examples=200, deadline=None)
    @given(ANY_RECORD)
    def test_to_dict_matches_the_reflective_form(self, record):
        assert json.dumps(record.to_dict(), sort_keys=True) == json.dumps(
            _jsonable(dataclasses.asdict(record)), sort_keys=True)

    def test_nested_record_and_non_finite_values(self):
        response = schemas.EvaluateResponse(
            results=(schemas.EvaluatedPoint(
                label="µ", cost_per_transistor_usd=math.nan,
                area_cm2=-0.0, die_cost_usd=math.inf, ok=False),),
            diagnostics=(schemas.DiagnosticPayload(
                where="w", equation="4", parameter="sd",
                value=[1.0, {"x": -math.inf}], index=None,
                error_type="DomainError", message="m"),))
        assert response.to_dict() == {
            "results": [{"label": "µ", "cost_per_transistor_usd": None,
                         "area_cm2": -0.0, "die_cost_usd": None,
                         "ok": False}],
            "backend": "numpy",
            "diagnostics": [{"where": "w", "equation": "4",
                             "parameter": "sd", "value": [1.0, {"x": None}],
                             "index": None, "error_type": "DomainError",
                             "message": "m"}]}


def _outcome(build):
    try:
        return "ok", build().to_json()
    except DomainError as exc:
        return "error", str(exc)


class TestDecoding:
    @settings(max_examples=300, deadline=None)
    @given(ANY_RECORD)
    def test_round_trip_matches_the_reference(self, record):
        cls = type(record)
        data = json.loads(record.to_json())
        assert _outcome(lambda: schemas._Wire.from_dict.__func__(cls, data)) \
            == _outcome(lambda: _reference_from_dict(cls, data))

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(WIRE_CLASSES),
           st.dictionaries(st.sampled_from(
               ["n_transistors", "feature_um", "sd", "label", "scenario",
                "scenarios", "policy", "code", "message", "results", "ghz",
                "x", "cost", "values", "where", "value", "index"]),
               JSON_VALUES, max_size=6) | JSON_VALUES)
    def test_arbitrary_input_matches_the_reference(self, cls, data):
        assert _outcome(lambda: schemas._Wire.from_dict.__func__(cls, data)) \
            == _outcome(lambda: _reference_from_dict(cls, data))

    def test_evaluate_request_sugar_is_unchanged(self):
        request = EvaluateRequest.from_dict(
            {"scenario": {"n_transistors": 1e7, "feature_um": 0.18}})
        assert request.scenarios[0].sd == 300.0
        with pytest.raises(DomainError, match="not both"):
            EvaluateRequest.from_dict({"scenario": {}, "scenarios": []})

    def test_huge_integer_is_a_domain_error(self):
        with pytest.raises(DomainError, match="'sd' is too large"):
            ScenarioPayload.from_dict(
                {"n_transistors": 1e7, "feature_um": 0.18, "sd": 10 ** 400})

    def test_deep_nesting_is_a_domain_error(self):
        with pytest.raises(DomainError, match="nested too deeply"):
            EvaluateRequest.from_json("[" * 100_000)
