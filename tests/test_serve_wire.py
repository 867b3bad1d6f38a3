"""Wire encoding and decoding, against their reference forms.

``_Wire.to_dict`` and ``from_dict`` read each class's field layout once
instead of reflecting on every call. These properties pin them to the
reflective forms they replace: ``to_json`` is byte-identical to
``json.dumps(_reflective(x), sort_keys=True)`` for every wire class,
with NaN, ±inf, −0.0, ``None`` and non-ASCII text drawn on purpose, and
``from_dict`` builds the same record, or raises the same
:class:`DomainError` message, as the field-by-field loop.

A table of request bodies pins the HTTP surface itself: on every route,
each body's status and response bytes, for valid bodies and for
malformed ones.
"""

import collections.abc
import dataclasses
import enum
import json
import math
import types
import typing
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario
from repro.errors import DomainError
from repro.serve import EvaluateRequest, schemas, start_server

WIRE_CLASSES = [
    obj for obj in (getattr(schemas, name) for name in schemas.__all__)
    if isinstance(obj, type) and issubclass(obj, schemas._Wire)]


def _reflective(value):
    """The reference: ``dataclasses.asdict`` by reflection on every call,
    a :class:`Scenario` without ``model`` and ``wafer``, enums as their
    values and non-finite floats as None."""
    if dataclasses.is_dataclass(value):
        return {f.name: _reflective(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if not (isinstance(value, Scenario)
                        and f.name in ("model", "wafer"))}
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {k: _reflective(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reflective(v) for v in value]
    return value


def _reference_from_dict(cls, data):
    """The reference: the field-by-field ``dataclasses.fields`` loop."""
    if not isinstance(data, dict):
        raise DomainError(f"{cls.__name__}: expected a JSON object, "
                          f"got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    parsers = {name: parse for name, _, parse in cls._layout().fields}
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
        convert = parsers[f.name]
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
    if tp is type(None):
        return st.none()
    if tp is schemas.ErrorPolicy:
        return st.sampled_from(schemas.ErrorPolicy)
    if origin is dict:
        return st.dictionaries(_strategy(args[0]), _strategy(args[1]),
                               max_size=3)
    if origin in (typing.Union, types.UnionType):
        return st.one_of(*(_strategy(a) for a in args))
    if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
        return st.tuples(*(_strategy(a) for a in args))
    if origin in (tuple, collections.abc.Sequence, collections.abc.Iterable):
        return st.lists(_strategy(args[0]), max_size=3).map(tuple)
    if tp is Scenario:
        return _records(Scenario, {"model", "wafer"})
    if isinstance(tp, type) and issubclass(tp, schemas._Wire):
        return _records(tp)
    raise TypeError(f"no strategy for {tp!r}")


def _records(cls, left_out=()):
    hints = typing.get_type_hints(cls, localns=vars(collections.abc))
    return st.builds(cls, **{
        f.name: st.deferred(lambda name=f.name: _strategy(hints[name]))
        for f in dataclasses.fields(cls) if f.name not in left_out})


ANY_RECORD = st.one_of(*(_records(cls) for cls in WIRE_CLASSES))


def test_every_wire_class_is_covered():
    assert len(WIRE_CLASSES) == 14
    assert schemas.ErrorResponse in WIRE_CLASSES


class TestEncoding:
    @settings(max_examples=400, deadline=None)
    @given(ANY_RECORD)
    def test_to_json_matches_the_reflective_form(self, record):
        expected = json.dumps(_reflective(record), sort_keys=True)
        assert record.to_json() == expected

    @settings(max_examples=200, deadline=None)
    @given(ANY_RECORD)
    def test_to_dict_matches_the_reflective_form(self, record):
        assert json.dumps(record.to_dict(), sort_keys=True) == json.dumps(
            _reflective(record), sort_keys=True)

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
            "backend": "python",
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
            EvaluateRequest.from_dict({"scenario": {
                "n_transistors": 1e7, "feature_um": 0.18, "sd": 10 ** 400}})

    def test_deep_nesting_is_a_domain_error(self):
        with pytest.raises(DomainError, match="nested too deeply"):
            EvaluateRequest.from_json("[" * 100_000)


POINT = {"n_transistors": 1e7, "feature_um": 0.18}

#: ``(route, body, status, response)``: a body is sent as JSON (a string
#: as it is), and the reply must be ``response`` in canonical JSON.
WIRE_CASES = [
    ('evaluate',
     {'scenario': POINT},
     200, {'backend': 'python',
           'diagnostics': [],
           'results': [{'area_cm2': 0.9720000000000001,
                        'cost_per_transistor_usd': 2.3123567510115963e-06,
                        'die_cost_usd': 23.12356751011596,
                        'label': '',
                        'ok': True}]}),
    ('evaluate',
     {'scenarios': [POINT,
                    {'n_transistors': 10000000.0,
                     'feature_um': 0.18,
                     'sd': 50.0,
                     'label': 'low'}],
      'policy': 'mask'},
     200, {'backend': 'python',
           'diagnostics': [{'equation': '4',
                            'error_type': 'DomainError',
                            'index': 1,
                            'message': 's_d must exceed the '
                                       'full-custom bound s_d0=100.0; '
                                       'got 50.0',
                            'parameter': 'scenario',
                            'value': 1.0,
                            'where': 'api.evaluate_many'}],
           'results': [{'area_cm2': 0.9720000000000001,
                        'cost_per_transistor_usd': 2.3123567510115963e-06,
                        'die_cost_usd': 23.12356751011596,
                        'label': '',
                        'ok': True},
                       {'area_cm2': 0.162,
                        'cost_per_transistor_usd': None,
                        'die_cost_usd': None,
                        'label': 'low',
                        'ok': False}]}),
    ('evaluate',
     {'scenarios': [POINT,
                    {'n_transistors': 10000000.0,
                     'feature_um': 0.18,
                     'sd': 50.0}],
      'policy': 'COLLECT'},
     200, {'backend': 'python',
           'diagnostics': [{'equation': '4',
                            'error_type': 'DomainError',
                            'index': 1,
                            'message': 's_d must exceed the '
                                       'full-custom bound s_d0=100.0; '
                                       'got 50.0',
                            'parameter': 'scenario',
                            'value': 1.0,
                            'where': 'api.evaluate_many'}],
           'results': []}),
    ('evaluate',
     {'scenario': {'n_transistors': 10000000.0,
                   'feature_um': 0.18,
                   'yield_fraction': -1.0}},
     422, {'code': 'DomainError',
           'diagnostics': [],
           'message': 'yield_fraction must lie in (0, 1]; got -1.0',
           'retry_after_s': None}),
    ('evaluate',
     {'scenario': {'n_transistors': 10000000.0,
                   'feature_um': 0.18,
                   'model': {'utilization': 0.5}}},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': 'Scenario: unknown field(s) model',
           'retry_after_s': None}),
    ('evaluate',
     {'scenario': {'n_transistors': 10000000.0,
                   'feature_um': 0.18,
                   'wafer': '300mm'}},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': 'Scenario: unknown field(s) wafer',
           'retry_after_s': None}),
    ('evaluate',
     {'scenario': {'n_transistors': True, 'feature_um': 0.18}},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': "field 'n_transistors' must be a number, got "
                      'bool',
           'retry_after_s': None}),
    ('evaluate',
     {'scenario': {'n_transistors': 10000000.0,
                   'feature_um': 0.18,
                   'sd': 10 ** 400}},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': "field 'sd' is too large for a float",
           'retry_after_s': None}),
    ('evaluate',
     {'scenario': POINT,
      'policy': 'explode'},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': "unknown error policy 'explode'; known: raise, "
                      'mask, collect',
           'retry_after_s': None}),
    ('evaluate',
     {'scenario': POINT,
      'scenarios': [POINT]},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': "EvaluateRequest: pass either 'scenario' or "
                      "'scenarios', not both",
           'retry_after_s': None}),
    ('evaluate',
     {'scenario': {'n_transistors': 10000000.0}},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': "Scenario: missing required field 'feature_um'",
           'retry_after_s': None}),
    ('evaluate',
     {'scenario': POINT,
      'frequency_ghz': 3.0},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': 'EvaluateRequest: unknown field(s) frequency_ghz',
           'retry_after_s': None}),
    ('evaluate',
     {'scenarios': 5},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': "field 'scenarios' must be a list of objects",
           'retry_after_s': None}),
    ('evaluate',
     {'scenario': [1, 2]},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': 'Scenario: expected a JSON object, got list',
           'retry_after_s': None}),
    ('evaluate',
     '{not json',
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': 'EvaluateRequest: invalid JSON: Expecting '
                      'property name enclosed in double quotes: line 1 '
                      'column 2 (char 1)',
           'retry_after_s': None}),
    ('sweep',
     {'scenario': POINT,
      'values': [150.0, 300.0, 600.0]},
     200, {'cost': [4.023222672435311e-06,
                    2.3123567510115963e-06,
                    2.8367346496939666e-06],
           'cost_opt': 2.3123567510115963e-06,
           'diagnostics': [],
           'n_masked': 0,
           'parameter': 'sd',
           'x': [150.0, 300.0, 600.0],
           'x_opt': 300.0}),
    ('sweep',
     {'scenario': POINT,
      'parameter': 'n_wafers',
      'values': [1000, 10000],
      'policy': 'mask'},
     200, {'cost': [7.673783755057983e-06, 1.642178375505798e-06],
           'cost_opt': 1.642178375505798e-06,
           'diagnostics': [],
           'n_masked': 0,
           'parameter': 'n_wafers',
           'x': [1000.0, 10000.0],
           'x_opt': 10000.0}),
    ('sweep',
     {'scenario': POINT,
      'values': [True]},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': "field 'values' must be a number, got bool",
           'retry_after_s': None}),
    ('sweep',
     {'scenario': {'n_transistors': 10000000.0,
                   'feature_um': 0.18,
                   'model': None}},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': 'Scenario: unknown field(s) model',
           'retry_after_s': None}),
    ('pareto',
     {'scenario': POINT,
      'values': [150.0, 300.0, 600.0]},
     200, {'diagnostics': [],
           'front': [{'design_cost_usd': 91461010.38546528,
                      'die_area_cm2': 0.48600000000000004,
                      'sd': 150.0,
                      'transistor_cost_usd': 4.023222672435311e-06},
                     {'design_cost_usd': 17328621.078878663,
                      'die_area_cm2': 0.9720000000000001,
                      'sd': 300.0,
                      'transistor_cost_usd': 2.3123567510115963e-06},
                     {'design_cost_usd': 5770799.623628856,
                      'die_area_cm2': 1.9440000000000002,
                      'sd': 600.0,
                      'transistor_cost_usd': 2.8367346496939666e-06}],
           'knee': {'design_cost_usd': 17328621.078878663,
                    'die_area_cm2': 0.9720000000000001,
                    'sd': 300.0,
                    'transistor_cost_usd': 2.3123567510115963e-06}}),
    ('pareto',
     {'scenario': POINT,
      'policy': 3},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': "field 'policy' must be a string, got int",
           'retry_after_s': None}),
    ('sensitivity',
     {'scenario': POINT,
      'parameters': ['n_wafers', 'yield_fraction']},
     200, {'diagnostics': [],
           'elasticities': {'n_wafers': -0.3493975173047637,
                            'yield_fraction': 0.0}}),
    ('sensitivity',
     {'scenario': POINT,
      'parameters': 'n_wafers'},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': "field 'parameters' must be a list of strings",
           'retry_after_s': None}),
    ('sensitivity',
     {'scenario': POINT,
      'rel_step': 'x'},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': "field 'rel_step' must be a number, got str",
           'retry_after_s': None}),
    ('optimal_sd',
     {'scenario': POINT},
     200, {'attempts': 1,
           'bracket': [100.00010000099999, 5000.0],
           'cost_opt': 2.3106703216858603e-06,
           'iterations': 6,
           'sd_opt': 310.35480059342234}),
    ('optimal_sd',
     {'scenario': POINT,
      'max_iter': 1.5},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': "field 'max_iter' must be an integer, got float",
           'retry_after_s': None}),
    ('optimal_sd',
     {'scenario': POINT,
      'retry': 1},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': "field 'retry' must be a boolean, got int",
           'retry_after_s': None}),
    ('optimal_sd',
     {'scenario': POINT,
      'max_iter': 2},
     422, {'code': 'ConvergenceError',
           'diagnostics': [],
           'message': 'Newton solve of the eq.-(4) stationarity '
                      'equation did not converge in 2 iterations',
           'retry_after_s': None}),
    ('optimal_sd',
     {'scenarios': [POINT]},
     400, {'code': 'DomainError',
           'diagnostics': [],
           'message': 'OptimalSdRequest: unknown field(s) scenarios',
           'retry_after_s': None}),
]


@pytest.fixture(scope="module")
def server():
    with start_server() as handle:
        yield handle


def _post(url: str, body) -> tuple:
    data = body if isinstance(body, str) else json.dumps(body)
    request = urllib.request.Request(url, data.encode("utf-8"))
    try:
        with urllib.request.urlopen(request, timeout=60) as reply:
            return reply.status, reply.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read().decode("utf-8")


def test_the_table_covers_every_route():
    assert {route for route, *_ in WIRE_CASES} == set(schemas._ROUTES)


@pytest.mark.parametrize("route, body, status, response", WIRE_CASES)
def test_each_body_gets_the_same_reply(server, route, body, status, response):
    assert _post(f"{server.url}/{route}", body) == (
        status, json.dumps(response, sort_keys=True) + "\n")
