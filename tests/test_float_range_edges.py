"""Operating points at the edges of the float range fail alike everywhere.

A cost that leaves the float range is a classified
:class:`~repro.errors.DomainError`, never a ``RuntimeWarning`` and never
a silent ``inf`` or 0: the same message from ``Scenario.evaluate`` (the
scalar kernels), ``Scenario.sweep`` (``sd_curve``, whether it takes the
in-place path or not) and a served ``/evaluate``, and one diagnostic per
point under ``MASK``. Eq. (7) and eqs. (1)/(3) classify their float
range too. CI runs the suite with ``-W error::RuntimeWarning``.
"""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.api import Scenario
from repro.cost import (
    DEFAULT_GENERALIZED_MODEL,
    PAPER_FIGURE4_MODEL,
    TestCostModel,
    TotalCostModel,
    die_cost,
    transistor_cost,
)
from repro.cost.total import _lambda_sq
from repro.density import area_from_sd
from repro.engine import evaluate_grid, pykernels
from repro.engine.kernels import Eq4SdKernel, Eq7SdKernel
from repro.errors import DomainError
from repro.optimize import volume_sweep
from repro.robust import ErrorPolicy
from repro.serve import ServeClient, ServeError, start_server
from repro.units import um_to_cm

BASE = dict(n_transistors=1e7, feature_um=0.18, sd=300.0, n_wafers=5_000.0,
            yield_fraction=0.4, cost_per_cm2=8.0)

#: (field, value, message): each breaks eq. (4) only by leaving the float range.
EDGES = [
    ("sd", 1e300,
     "eq. (6) design cost is out of float range for "
     "n_transistors=10000000.0, sd=1e+300"),
    ("yield_fraction", 1e-320,
     "eq. (4) transistor cost is not finite for sd=300.0, feature_um=0.18, "
     "n_wafers=5000.0, yield_fraction=1e-320"),
    ("n_wafers", 1e-320,
     "eq. (4) transistor cost is not finite for sd=300.0, feature_um=0.18, "
     "n_wafers=1e-320, yield_fraction=0.4"),
    ("feature_um", 1e-301, "lambda^2 underflows to 0 for feature_um=1e-301"),
    ("feature_um", 1e200, "lambda^2 overflows for feature_um=1e+200"),
]
IDS = [f"{field}={value!r}" for field, value, _ in EDGES]


@pytest.fixture(autouse=True)
def no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def _message(fn):
    with pytest.raises(DomainError) as raised:
        fn()
    return str(raised.value)


@pytest.mark.parametrize("field, value, message", EDGES, ids=IDS)
def test_evaluate_and_sweep_raise_the_same_message(field, value, message):
    scenario = Scenario(**{**BASE, field: value})
    sd = scenario.sd
    assert _message(scenario.evaluate) == message
    assert _message(lambda: scenario.sweep("sd", values=[sd, sd])) == message
    # Past the engine's block size the in-place path answers.
    grid = np.full(70_000, sd)
    assert _message(lambda: scenario.sweep("sd", values=grid)) == message


@pytest.mark.parametrize("field, value, message", EDGES, ids=IDS)
def test_breakdown_raises_the_transistor_cost_error(field, value, message):
    point = {**BASE, field: value}
    sd = point.pop("sd")
    for model in (PAPER_FIGURE4_MODEL,
                  replace(PAPER_FIGURE4_MODEL, test_model=TestCostModel())):
        assert _message(lambda: model.transistor_cost(sd, **point)) == message
        assert _message(lambda: model.breakdown(sd, **point)) == message


def test_mask_model_prices_a_tiny_node_like_the_sweep():
    # The mask-set scale (0.18/λ)^2 overflows here; λ² fails first.
    message = "lambda^2 underflows to 0 for feature_um=1e-200"
    scenario = Scenario(**{**BASE, "feature_um": 1e-200},
                        model=replace(PAPER_FIGURE4_MODEL, include_masks=True))
    assert _message(scenario.evaluate) == message
    assert _message(lambda: scenario.sweep("sd", values=[300.0, 300.0])) == \
        message


AREA_OVERFLOW = ("implied die area overflows for feature_um=1e+200, "
                 "sd=400.0, n_transistors=10000000.0")


def test_area_overflow_has_one_message():
    assert _message(lambda: area_from_sd(400.0, 1e7, 1e200)) == AREA_OVERFLOW
    assert _message(lambda: pykernels.area_from_sd(400.0, 1e7, 1e200)) == \
        AREA_OVERFLOW
    assert _message(lambda: area_from_sd(
        np.array([300.0, 400.0]), 1e7, np.array([0.18, 1e200]))) == \
        AREA_OVERFLOW


@pytest.mark.parametrize("field, value, message", EDGES[3:], ids=IDS[3:])
def test_feature_edges_with_a_test_model_raise_the_same_message(field, value,
                                                                message):
    # The test term squares lambda too: it must not raise first.
    model = replace(PAPER_FIGURE4_MODEL, test_model=TestCostModel())
    scenario = Scenario(**{**BASE, field: value}, model=model)
    assert _message(scenario.evaluate) == message
    assert _message(lambda: scenario.sweep("sd", values=[300.0, 300.0])) == \
        message


@pytest.mark.parametrize("field, value, message", EDGES, ids=IDS)
def test_curve_and_in_place_curve_raise_the_same_message(field, value,
                                                         message):
    point = {**BASE, field: value}
    sd = point.pop("sd")
    with pytest.raises(DomainError) as raised:
        curve = PAPER_FIGURE4_MODEL.sd_curve(**point)
        grid = np.array([sd, 400.0, 500.0])
        assert _message(lambda: curve(sd)) == message
        assert _message(lambda: curve(grid)) == message
        out, scratch = np.empty(3), np.empty(3)
        assert _message(lambda: curve(grid, out=out, scratch=scratch)) == message
        raise DomainError(message)
    assert str(raised.value) == message


@pytest.mark.parametrize("field, value, message", EDGES[:3], ids=IDS[:3])
def test_mask_sweep_gives_one_diagnostic_per_point(field, value, message):
    scenario = Scenario(**{**BASE, field: value})
    result = scenario.sweep("sd", values=[scenario.sd, scenario.sd],
                            policy=ErrorPolicy.MASK)
    assert np.isnan(result.cost).all()
    assert [(d.index, d.message) for d in result.diagnostics] == \
        [(0, message), (1, message)]


def test_mask_sweep_keeps_the_points_in_range():
    scenario = Scenario(**BASE)
    result = scenario.sweep("sd", values=[300.0, 1e300, 600.0],
                            policy=ErrorPolicy.MASK)
    assert result.cost[0] == scenario.evaluate().cost_per_transistor_usd
    assert math.isnan(result.cost[1]) and result.cost[2] > 0
    [diagnostic] = result.diagnostics
    assert diagnostic.index == 1


def test_grid_that_only_nears_the_edge_is_priced_in_place():
    # Every point is in range, so the answer is the scalar path's.
    model = PAPER_FIGURE4_MODEL
    kernel = Eq4SdKernel(model, 1e7, 0.18, 5_000.0, 0.4, 8.0)
    grid = np.array([100.0 + 1e-9, 300.0, 1e250])
    out = kernel.batch(grid)
    for sd, cost in zip(grid.tolist(), out.tolist()):
        assert cost == model.transistor_cost(sd, 1e7, 0.18, 5_000.0, 0.4, 8.0)


#: ``u·Y`` = 1e-300 · 1e-300 underflows to 0: every cost is infinite.
UNDERFLOWED_YIELD = TotalCostModel(utilization=1e-300)


def _not_finite(n_wafers):
    return ("eq. (4) transistor cost is not finite for sd=300.0, "
            f"feature_um=0.18, n_wafers={n_wafers!r}, yield_fraction=1e-300")


def test_underflowed_yield_fails_alike_for_array_volumes():
    def cost(n_wafers):
        return UNDERFLOWED_YIELD.transistor_cost(300.0, 1e7, 0.18, n_wafers,
                                                 1e-300, 8.0)
    assert _message(lambda: cost(10.0)) == _not_finite(10.0)
    assert _message(lambda: cost(np.array([10.0, 20.0]))) == _not_finite(10.0)


def test_underflowed_yield_volume_sweep_masks_every_point():
    volumes = [10.0, 1e3, 1e5]
    result = volume_sweep(UNDERFLOWED_YIELD, 300.0, 1e7, 0.18, 1e-300, 8.0,
                          n_wafers_values=volumes, policy=ErrorPolicy.MASK)
    assert np.isnan(result.cost).all()
    assert [(d.index, d.message) for d in result.diagnostics] == \
        [(i, _not_finite(v)) for i, v in enumerate(volumes)]


SUBNORMAL = 1e-301
UNDERFLOW = "lambda^2 underflows to 0 for feature_um=1e-301"


def test_subnormal_feature_fails_on_every_path():
    assert _message(lambda: _lambda_sq(um_to_cm(SUBNORMAL), SUBNORMAL)) == \
        UNDERFLOW
    assert _message(lambda: _lambda_sq(um_to_cm(np.array([0.18, SUBNORMAL])),
                                       np.array([0.18, SUBNORMAL]))) == \
        UNDERFLOW
    with pytest.raises(DomainError, match=re.escape(UNDERFLOW)):
        pykernels.total_transistor_cost(
            300.0, 1e7, SUBNORMAL, 5_000.0, 0.4, 8.0, wafer_area_cm2=314.0,
            a0=1000.0, p1=1.0, p2=1.2, sd0=100.0)
    with pytest.raises(DomainError, match=re.escape(UNDERFLOW)):
        pykernels.area_from_sd(300.0, 1e7, SUBNORMAL)
    assert _message(lambda: area_from_sd(300.0, 1e7, SUBNORMAL)) == UNDERFLOW
    assert _message(lambda: area_from_sd(
        np.array([300.0, 400.0]), 1e7, np.array([0.18, SUBNORMAL]))) == \
        UNDERFLOW
    scenario = Scenario(n_transistors=1e7, feature_um=SUBNORMAL)
    assert _message(scenario.optimal_sd) == UNDERFLOW
    assert _message(scenario.pareto) == UNDERFLOW


def test_subnormal_feature_is_a_422_on_the_wire():
    point = {"n_transistors": 1e7, "feature_um": SUBNORMAL}
    with start_server() as handle:
        client = ServeClient(handle.url)
        with pytest.raises(ServeError) as refused:
            client.evaluate(point)
        masked = client.evaluate_many([point], policy="mask")
    assert refused.value.status == 422
    assert refused.value.error.message == UNDERFLOW
    assert masked.results[0].cost_per_transistor_usd is None
    assert masked.diagnostics[0].message == UNDERFLOW


# -- eq. (7) --------------------------------------------------------------------

#: (sd, message): each breaks eq. (7) at 1e7 transistors, 0.18 µm and
#: 5,000 wafers only by leaving the float range.
EQ7_EDGES = [
    (1e300, "eq. (6) design cost is out of float range for "
            "n_transistors=10000000.0, sd=1e+300"),
    (1e250, "eq. (7) transistor cost is not finite for sd=1e+250, "
            "feature_um=0.18, n_wafers=5000.0"),
]
EQ7_POINT = (1e7, 0.18, 5_000.0)


@pytest.mark.parametrize("sd, message", EQ7_EDGES)
def test_eq7_point_breakdown_and_grid_raise_the_same_message(sd, message):
    model = DEFAULT_GENERALIZED_MODEL
    assert _message(lambda: model.transistor_cost(sd, *EQ7_POINT)) == message
    assert _message(lambda: model.breakdown(sd, *EQ7_POINT)) == message
    grid = np.array([300.0, sd, 400.0])
    assert _message(lambda: model.transistor_cost(grid, *EQ7_POINT)) == message


def test_eq7_kernel_masks_each_point_out_of_range():
    model = DEFAULT_GENERALIZED_MODEL
    kernel = Eq7SdKernel(model, *EQ7_POINT)
    grid = [300.0] + [sd for sd, _ in EQ7_EDGES]
    masked = evaluate_grid(kernel, grid, policy=ErrorPolicy.MASK,
                           where="test.eq7", equation="7", parameter="sd")
    assert masked.values[0] == model.transistor_cost(300.0, *EQ7_POINT)
    assert np.isnan(masked.values[1:]).all()
    assert [(d.index, d.message) for d in masked.diagnostics] == \
        [(1, EQ7_EDGES[0][1]), (2, EQ7_EDGES[1][1])]
    assert _message(lambda: evaluate_grid(
        kernel, grid, where="test.eq7", equation="7",
        parameter="sd")) == EQ7_EDGES[0][1]


# -- eqs. (1)/(3) ---------------------------------------------------------------

def test_eq3_edges_have_one_message_on_both_paths():
    tiny = ("eq. (3) transistor cost is not finite for cost_per_cm2=8.0, "
            "feature_um=0.18, sd=300.0, yield_fraction=5e-324")
    assert _message(lambda: transistor_cost(8.0, 0.18, 300.0, 5e-324)) == tiny
    assert _message(lambda: transistor_cost(
        8.0, 0.18, 300.0, np.array([0.8, 5e-324]))) == tiny
    huge = "lambda^2 overflows for feature_um=1e+200"
    assert _message(lambda: transistor_cost(8.0, 1e200, 300.0, 0.8)) == huge
    assert _message(lambda: transistor_cost(
        8.0, np.array([0.18, 1e200]), 300.0, 0.8)) == huge
    die = ("eq. (3) die cost is not finite for cost_per_cm2=8.0, "
           "feature_um=0.18, sd=300.0, n_transistors=10000000.0, "
           "yield_fraction=5e-324")
    assert _message(lambda: die_cost(8.0, 0.18, 300.0, 1e7, 5e-324)) == die
    assert _message(lambda: die_cost(
        8.0, 0.18, np.array([300.0, 300.0]), 1e7, np.array([0.8, 5e-324]))) == die
