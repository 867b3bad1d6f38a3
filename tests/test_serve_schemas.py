"""Wire schemas: strict parsing, canonical JSON, lossless round trips.

The frozen dataclasses in ``repro.serve.schemas`` are the entire HTTP
contract — the server parses requests and renders responses with the
very same classes the client uses. A wire scenario is the facade's own
:class:`Scenario`, and each request class is derived from the facade
method it serves. These tests pin the parse rules (unknown fields
rejected, types checked, policy spellings validated, the
single-``scenario`` sugar), the derivation, that a scenario the server
would price differently is refused, and that ``to_json`` →
``from_json`` is the identity for every request/response class.
"""

import dataclasses
import inspect
import json
import math

import pytest

from repro.api import Scenario, evaluate_many
from repro.cost import PAPER_FIGURE4_MODEL, TotalCostModel
from repro.errors import DomainError
from repro.robust import Diagnostic, ErrorPolicy
from repro.serve import ServeClient
from repro.serve.schemas import (
    DiagnosticPayload,
    ErrorResponse,
    EvaluatedPoint,
    EvaluateRequest,
    EvaluateResponse,
    OptimalSdRequest,
    OptimalSdResponse,
    ParetoPoint,
    ParetoRequest,
    ParetoResponse,
    SensitivityRequest,
    SensitivityResponse,
    SweepRequest,
    SweepResponse,
)
from repro.wafer import WAFER_300MM

POINT = Scenario(n_transistors=1e7, feature_um=0.18, sd=300.0,
                 n_wafers=5_000.0, yield_fraction=0.4, cost_per_cm2=8.0,
                 label="fig4")
POINT_DICT = {"n_transistors": 1e7, "feature_um": 0.18, "sd": 300.0,
              "n_wafers": 5_000.0, "yield_fraction": 0.4,
              "cost_per_cm2": 8.0, "label": "fig4"}


def _scenario(data):
    return EvaluateRequest.from_dict({"scenario": data}).scenarios[0]


class TestScenarioOnTheWire:
    def test_wire_fields_are_the_facade_fields_but_model_and_wafer(self):
        assert json.loads(EvaluateRequest(scenarios=(POINT,)).to_json()) == \
            {"policy": "raise", "scenarios": [POINT_DICT]}
        assert {f.name for f in dataclasses.fields(Scenario)} - \
            set(POINT_DICT) == {"model", "wafer"}

    def test_parses_to_the_facade_scenario(self):
        assert _scenario(POINT_DICT) == POINT
        assert _scenario({"n_transistors": 1e7, "feature_um": 0.18}) == \
            Scenario(n_transistors=1e7, feature_um=0.18)

    def test_integer_counts_are_sent_as_floats(self):
        scenario = Scenario(n_transistors=10_000_000, feature_um=0.18, sd=250)
        sent = json.loads(EvaluateRequest(scenarios=(scenario,)).to_json())
        assert sent["scenarios"][0]["n_transistors"] == 1e7
        assert "10000000.0" in EvaluateRequest(scenarios=(scenario,)).to_json()

    @pytest.mark.parametrize("field", ["model", "wafer", "frequency_ghz"])
    def test_unknown_field_rejected(self, field):
        with pytest.raises(DomainError,
                           match=f"Scenario: unknown field.*{field}"):
            _scenario({**POINT_DICT, field: None})

    def test_missing_required_field_rejected(self):
        with pytest.raises(DomainError, match="missing required field "
                                              "'feature_um'"):
            _scenario({"n_transistors": 1e7})

    def test_wrong_type_rejected(self):
        with pytest.raises(DomainError, match="'sd' must be a number"):
            _scenario({"n_transistors": 1e7, "feature_um": 0.18, "sd": "300"})

    def test_bool_is_not_a_number(self):
        with pytest.raises(DomainError, match="must be a number"):
            _scenario({"n_transistors": True, "feature_um": 0.18})

    def test_non_object_rejected(self):
        with pytest.raises(DomainError, match="expected a JSON object"):
            _scenario([1, 2])

    def test_malformed_json_rejected(self):
        with pytest.raises(DomainError, match="invalid JSON"):
            EvaluateRequest.from_json("{not json")


class TestScenarioPricedElsewhereIsRefused:
    """A scenario the server would price under another model never
    leaves: encoding it names the field instead of sending Figure 4."""

    OTHER_MODEL = POINT.replace(model=TotalCostModel(utilization=0.5))
    OTHER_WAFER = POINT.replace(wafer=WAFER_300MM)

    @pytest.mark.parametrize("scenario, field", [
        (OTHER_MODEL, "model"), (OTHER_WAFER, "wafer")])
    def test_to_dict_names_the_field(self, scenario, field):
        for request in (EvaluateRequest(scenarios=(scenario,)),
                        SweepRequest(scenario=scenario),
                        OptimalSdRequest(scenario=scenario)):
            with pytest.raises(DomainError,
                               match=f"Scenario field '{field}'"):
                request.to_dict()

    @pytest.mark.parametrize("scenario, field", [
        (OTHER_MODEL, "model"), (OTHER_WAFER, "wafer")])
    def test_client_refuses_before_sending(self, scenario, field):
        # Nothing listens on port 9: the refusal must come first.
        client = ServeClient("http://127.0.0.1:9", timeout_s=1.0)
        for call in (client.evaluate, client.sweep, client.pareto,
                     client.sensitivity, client.optimal_sd):
            with pytest.raises(DomainError,
                               match=f"Scenario field '{field}'"):
                call(scenario)

    def test_an_equal_model_is_sent(self):
        scenario = POINT.replace(model=TotalCostModel(include_masks=False))
        assert scenario.model == PAPER_FIGURE4_MODEL
        assert EvaluateRequest(scenarios=(scenario,)).to_dict() == \
            EvaluateRequest(scenarios=(POINT,)).to_dict()


ROUTES = [(EvaluateRequest, evaluate_many), (SweepRequest, Scenario.sweep),
          (ParetoRequest, Scenario.pareto),
          (SensitivityRequest, Scenario.sensitivity),
          (OptimalSdRequest, Scenario.optimal_sd)]


class TestDerivedRequests:
    @pytest.mark.parametrize("request_type, method", ROUTES)
    def test_fields_are_the_method_parameters(self, request_type, method):
        params = [p for p in inspect.signature(method).parameters.values()
                  if p.name not in ("self", "diagnostics")]
        fields = dataclasses.fields(request_type)
        subject = [] if method is evaluate_many else ["scenario"]
        assert [f.name for f in fields] == subject + [p.name for p in params]
        for field, param in zip(fields[len(subject):], params):
            if param.name != "retry":
                assert field.type == param.annotation
                assert field.default is param.default or (
                    field.default is dataclasses.MISSING
                    and param.default is inspect.Parameter.empty)
        assert request_type.__doc__ == method.__doc__
        assert request_type.__module__ == "repro.serve.schemas"

    def test_retry_is_a_bool_on_the_wire(self):
        [retry] = [f for f in dataclasses.fields(OptimalSdRequest)
                   if f.name == "retry"]
        assert (retry.type, retry.default) == ("bool", False)

    def test_requests_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SweepRequest(scenario=POINT).parameter = "n_wafers"


class TestEvaluateRequest:
    def test_round_trip(self):
        request = EvaluateRequest(scenarios=(POINT,),
                                  policy=ErrorPolicy.MASK)
        assert EvaluateRequest.from_json(request.to_json()) == request

    def test_single_scenario_sugar(self):
        request = EvaluateRequest.from_dict({"scenario": POINT_DICT})
        assert request.scenarios == (POINT,)
        assert request.policy is ErrorPolicy.RAISE

    def test_both_spellings_rejected(self):
        with pytest.raises(DomainError, match="either 'scenario' or"):
            EvaluateRequest.from_dict({"scenario": POINT_DICT,
                                       "scenarios": [POINT_DICT]})

    def test_unknown_policy_rejected(self):
        with pytest.raises(DomainError, match="unknown error policy"):
            EvaluateRequest.from_dict({"scenarios": [POINT_DICT],
                                       "policy": "explode"})

    def test_policy_case_normalised(self):
        request = EvaluateRequest.from_dict(
            {"scenarios": [POINT_DICT], "policy": "COLLECT"})
        assert request.policy is ErrorPolicy.COLLECT


class TestRequestRoundTrips:
    def test_sweep(self):
        request = SweepRequest(scenario=POINT, parameter="n_wafers",
                               values=(1e3, 1e4), policy=ErrorPolicy.MASK)
        assert SweepRequest.from_json(request.to_json()) == request

    def test_pareto(self):
        request = ParetoRequest(scenario=POINT, values=(100.0, 300.0))
        assert ParetoRequest.from_json(request.to_json()) == request

    def test_sensitivity(self):
        request = SensitivityRequest(scenario=POINT,
                                     parameters=("n_wafers",),
                                     rel_step=0.1, sd_max=2000.0)
        assert SensitivityRequest.from_json(request.to_json()) == request

    def test_optimal_sd(self):
        request = OptimalSdRequest(scenario=POINT, sd_max=2000.0, tol=1e-8,
                                   max_iter=100, retry=True)
        assert OptimalSdRequest.from_json(request.to_json()) == request


class TestResponseRoundTrips:
    def test_evaluate(self):
        response = EvaluateResponse(
            results=(EvaluatedPoint(label="a", cost_per_transistor_usd=1e-6,
                                    area_cm2=0.97, die_cost_usd=10.0,
                                    ok=True),),
            backend="python",
            diagnostics=(DiagnosticPayload(
                where="w", equation="4", parameter="sd", value=None,
                index=0, error_type="DomainError", message="bad"),))
        assert EvaluateResponse.from_json(response.to_json()) == response

    def test_sweep(self):
        response = SweepResponse(parameter="sd", x=(100.0, 200.0),
                                 cost=(1e-6, None), x_opt=100.0,
                                 cost_opt=1e-6, n_masked=1)
        assert SweepResponse.from_json(response.to_json()) == response

    def test_pareto(self):
        point = ParetoPoint(sd=150.0, die_area_cm2=1.0,
                            transistor_cost_usd=1e-6, design_cost_usd=2e5)
        response = ParetoResponse(front=(point,), knee=point)
        assert ParetoResponse.from_json(response.to_json()) == response

    def test_pareto_empty_front(self):
        response = ParetoResponse(front=(), knee=None)
        assert ParetoResponse.from_json(response.to_json()) == response

    def test_sensitivity(self):
        response = SensitivityResponse(
            elasticities={"n_wafers": -0.35, "yield_fraction": None})
        assert SensitivityResponse.from_json(response.to_json()) == response

    def test_optimal_sd(self):
        response = OptimalSdResponse(sd_opt=310.0, cost_opt=4.6e-6,
                                     iterations=53,
                                     bracket=(5.0, 5000.0), attempts=2)
        assert OptimalSdResponse.from_json(response.to_json()) == response

    def test_error(self):
        response = ErrorResponse(code="DomainError", message="bad yield",
                                 retry_after_s=1.5)
        assert ErrorResponse.from_json(response.to_json()) == response

    def test_nan_serialises_as_null(self):
        response = SweepResponse(parameter="sd", x=(1.0,), cost=(math.nan,),
                                 x_opt=None, cost_opt=None)
        data = json.loads(response.to_json())
        assert data["cost"] == [None]

    def test_json_is_canonical(self):
        data = json.loads(SweepRequest(scenario=POINT).to_json())
        assert list(data) == sorted(data)
        assert list(data["scenario"]) == sorted(data["scenario"])

    def test_backend_defaults_to_what_the_server_sends(self):
        assert EvaluateResponse(results=()).backend == "python"


class TestDiagnosticPayload:
    def test_from_diagnostic_preserves_fields(self):
        diag = Diagnostic(where="api.evaluate_many", equation="4",
                          parameter="scenario", value=-1.0, index=2,
                          error_type="DomainError", message="bad")
        payload = DiagnosticPayload.from_diagnostic(diag)
        assert payload.where == diag.where
        assert payload.value == -1.0
        assert payload.index == 2

    def test_non_json_value_stringified(self):
        diag = Diagnostic(where="w", equation="4", parameter="p",
                          value=object(), index=None,
                          error_type="TypeError", message="m")
        payload = DiagnosticPayload.from_diagnostic(diag)
        assert isinstance(payload.value, str)
        json.dumps(payload.to_dict())  # must be serialisable
