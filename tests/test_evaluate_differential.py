"""One operating point, four ways: the served, facade and NumPy answers agree.

``Scenario.evaluate``, ``evaluate_many`` and ``POST /evaluate`` all
price through :func:`repro.engine.points.price_points`, so on a
feasible point they must agree bit for bit, and within 1e-12 of the
NumPy ``sd_curve`` behind ``Scenario.sweep("sd", values=[sd, sd])``.
On an infeasible point they must fail alike: the same :class:`DomainError`
message as the RAISE exception, the MASK :class:`Diagnostic` and the
422 body. The strategies lean on the edges: ``s_d`` just above
``s_d0``, ``N_w`` near 1, ``Y`` near 1, huge ``N_tr``.
"""

import math
import re
import warnings
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Scenario, evaluate_many
from repro.cost import PAPER_FIGURE4_MODEL, TestCostModel
from repro.errors import CollectedErrors, DomainError
from repro.robust import ErrorPolicy
from repro.serve import ServeClient, ServeError, start_server
from repro.serve.schemas import DiagnosticPayload

SD0 = PAPER_FIGURE4_MODEL.design_model.sd0
BASE = dict(n_transistors=1e7, feature_um=0.18, sd=300.0, n_wafers=5_000.0,
            yield_fraction=0.4, cost_per_cm2=8.0)


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0 ** e)


feasible_points = st.fixed_dictionaries(dict(
    n_transistors=st.one_of(_log_uniform(1e3, 1e9), _log_uniform(1e9, 1e15)),
    feature_um=_log_uniform(0.01, 2.0),
    sd=st.one_of(
        _log_uniform(1.0, 1e4).map(lambda d: SD0 + d),
        st.floats(1e-12, 1e-6).map(lambda d: SD0 * (1.0 + d)),
        st.just(math.nextafter(SD0, math.inf))),
    n_wafers=st.one_of(_log_uniform(1.0, 1e7),
                       st.floats(1.0, 1.0 + 1e-6), st.just(1.0)),
    yield_fraction=st.one_of(st.floats(1e-3, 1.0),
                             st.floats(1.0 - 1e-9, 1.0), st.just(1.0)),
    cost_per_cm2=_log_uniform(0.1, 1e3),
))

#: One field pushed out of the eq.-(4) domain (or out of float range).
breakers = st.one_of(
    st.tuples(st.just("sd"), st.one_of(st.floats(-1e6, SD0), st.just(SD0))),
    st.tuples(st.just("yield_fraction"),
              st.one_of(st.floats(1.0, 1e6, exclude_min=True),
                        st.floats(-1e6, 0.0))),
    st.tuples(st.just("n_wafers"), st.floats(-1e9, 0.0)),
    st.tuples(st.just("feature_um"), st.just(1e200)),
    st.tuples(st.just("sd"), st.just(1e300)),
    st.tuples(st.just("yield_fraction"), st.just(1e-320)),
)


@pytest.fixture(scope="module")
def client():
    with start_server() as handle:
        yield ServeClient(handle.url)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(points=st.lists(feasible_points, min_size=1, max_size=6))
def test_feasible_points_agree_on_every_path(client, points):
    scenarios = [Scenario(**p) for p in points]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = [s.evaluate() for s in scenarios]
        batch = evaluate_many(scenarios)
    served = client.evaluate_many(points).results
    for scenario, one, many, wire in zip(scenarios, single, batch, served):
        pair = (one.cost_per_transistor_usd, one.area_cm2)
        assert (many.cost_per_transistor_usd, many.area_cm2) == pair
        assert (wire.cost_per_transistor_usd, wire.area_cm2) == pair
        assert wire.die_cost_usd == one.die_cost_usd and wire.ok
        # A sweep needs two grid points; both are this point's s_d.
        curve = scenario.sweep("sd", values=[scenario.sd] * 2).cost[0]
        assert math.isfinite(pair[0])
        assert pair[0] == pytest.approx(float(curve), rel=1e-12, abs=0.0)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(point=feasible_points, breaker=breakers)
def test_infeasible_points_fail_alike_on_every_path(client, point, breaker):
    field, value = breaker
    bad = {**point, field: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as raised:
            Scenario(**bad).evaluate()
        message = str(raised.value)
        with pytest.raises(DomainError) as many_raised:
            evaluate_many([Scenario(**point), Scenario(**bad)])
        diagnostics = []
        masked = evaluate_many([Scenario(**point), Scenario(**bad)],
                               policy=ErrorPolicy.MASK,
                               diagnostics=diagnostics)
        with pytest.raises(CollectedErrors) as collected:
            evaluate_many([Scenario(**point), Scenario(**bad)],
                          policy=ErrorPolicy.COLLECT)
    assert str(many_raised.value) == message
    assert masked[0].ok and not masked[1].ok
    assert math.isnan(masked[1].cost_per_transistor_usd)
    [diagnostic] = diagnostics
    assert (diagnostic.where, diagnostic.equation, diagnostic.parameter,
            diagnostic.value, diagnostic.index, diagnostic.error_type,
            diagnostic.message) == ("api.evaluate_many", "4", "scenario",
                                    1.0, 1, "DomainError", message)
    assert collected.value.diagnostics == (diagnostic,)

    with pytest.raises(ServeError) as refused:
        client.evaluate_many([point, bad])
    assert refused.value.status == 422
    assert refused.value.error.code == "DomainError"
    assert refused.value.error.message == message
    served = client.evaluate_many([point, bad], policy="mask")
    assert [p.ok for p in served.results] == [True, False]
    assert served.results[1].cost_per_transistor_usd is None
    assert served.diagnostics == (DiagnosticPayload.from_diagnostic(diagnostic),)
    served = client.evaluate_many([point, bad], policy="collect")
    assert served.results == ()
    assert served.diagnostics == (DiagnosticPayload.from_diagnostic(diagnostic),)


@pytest.mark.parametrize("field, value, message", [
    ("sd", 1e300, "eq. (6) design cost is out of float range"),
    ("yield_fraction", 1e-320, "eq. (4) transistor cost is not finite"),
    ("feature_um", 1e200, "lambda^2 overflows"),
])
def test_float_range_edges_are_classified(field, value, message):
    scenario = Scenario(**{**BASE, field: value})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(message)):
            scenario.evaluate()


@settings(max_examples=60, deadline=None)
@given(point=feasible_points, utilization=st.floats(0.05, 1.0))
def test_mask_test_and_utilization_terms_match_the_model(point, utilization):
    model = replace(PAPER_FIGURE4_MODEL, include_masks=True,
                    test_model=TestCostModel(), utilization=utilization)
    scenario = Scenario(**point, model=model)
    expected = model.transistor_cost(*(point[f] for f in (
        "sd", "n_transistors", "feature_um", "n_wafers", "yield_fraction",
        "cost_per_cm2")))
    assert scenario.evaluate().cost_per_transistor_usd == pytest.approx(
        expected, rel=1e-12, abs=0.0)
