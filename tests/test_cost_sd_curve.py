"""Eq. (4) bound to an operating point: ``TotalCostModel.sd_curve``.

``transistor_cost`` delegates to the curve and ``optimal_sd`` minimises
it, so these tests pin both to references written out here in terms of
the other public pieces of the model. No value is a stored golden:
numpy's ``pow`` rounds differently across CPUs, so every reference is
computed on the host that runs the test, with the same numpy ufuncs.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cost import (
    PAPER_FIGURE4_MODEL,
    DesignCostModel,
    TestCostModel,
    TotalCostModel,
)
from repro.engine.kernels import Eq4SdKernel
from repro.errors import DomainError
from repro.optimize import optimal_sd
from repro.robust.solvers import retrying_golden_min
from repro.units import um_to_cm
from repro.validation import check_fraction, check_positive

CONFIGS = {
    "figure4": PAPER_FIGURE4_MODEL,
    "masks": TotalCostModel(include_masks=True),
    "test_u07": TotalCostModel(test_model=TestCostModel(), utilization=0.7),
}
FIXED = ("n_transistors", "feature_um", "n_wafers", "yield_fraction", "cost_per_cm2")
POINT = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5000.0,
             yield_fraction=0.4, cost_per_cm2=8.0)


def _random_points(seed, n):
    rng = random.Random(seed)
    return [dict(n_transistors=10 ** rng.uniform(5, 9),
                 feature_um=rng.choice([0.35, 0.18, 0.13, 0.09]) * rng.uniform(0.8, 1.2),
                 n_wafers=10 ** rng.uniform(2, 6),
                 yield_fraction=rng.uniform(0.05, 1.0),
                 cost_per_cm2=rng.uniform(1.0, 40.0))
            for _ in range(n)]


def _eq4_reference(model, sd, n_transistors, feature_um, n_wafers,
                   yield_fraction, cost_per_cm2):
    """``λ²·s_d/(u·Y)·(Cm + Cd + Ct)`` from eq. (5) and the test model."""
    lambda_sq = np.asarray(um_to_cm(feature_um), dtype=float) ** 2
    effective_yield = np.asarray(yield_fraction, dtype=float) * model.utilization
    cd_sq = model.design_cost_per_cm2(n_transistors, sd, feature_um, n_wafers)
    ct_sq = 0.0
    if model.test_model is not None:
        ct_sq = model.test_model.cost_per_cm2(sd, feature_um, n_transistors)
    return (lambda_sq * np.asarray(sd, dtype=float) / effective_yield
            * (np.asarray(cost_per_cm2, dtype=float) + np.asarray(cd_sq)
               + np.asarray(ct_sq)))


@pytest.mark.parametrize("config", sorted(CONFIGS))
class TestTransistorCostParity:
    def test_scalar_sd_bit_identical(self, config):
        # Near s_d0 the design term dominates, so a last-bit change in
        # eq. (6)'s power (libm and numpy differ on ~5 % of margins)
        # survives the sum with Cm; many distinct margins catch one.
        near_sd0 = (100.0 + np.geomspace(1e-3, 50.0, 300)).tolist()
        model = CONFIGS[config]
        for point in _random_points(1, 8):
            for sd in (*near_sd0, 150, 300.0, np.float64(777.7), 4999.5):
                got = model.transistor_cost(sd, **point)
                assert type(got) is float
                assert got == float(_eq4_reference(model, sd, **point))

    def test_array_sd_bit_identical(self, config):
        model = CONFIGS[config]
        grid = np.geomspace(100.5, 1e5, 2_000)
        for point in _random_points(2, 5):
            got = model.transistor_cost(grid, **point)
            np.testing.assert_array_equal(got, _eq4_reference(model, grid, **point))

    def test_array_fixed_argument_with_scalar_sd(self, config):
        model = CONFIGS[config]
        point = dict(POINT, n_wafers=np.array([1e3, 1e4, 1e5]))
        got = model.transistor_cost(300.0, **point)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        np.testing.assert_array_equal(got, _eq4_reference(model, 300.0, **point))

    def test_curve_equals_transistor_cost(self, config):
        model = CONFIGS[config]
        curve = model.sd_curve(**POINT)
        grid = np.linspace(101.0, 3000.0, 257)
        np.testing.assert_array_equal(curve(grid), model.transistor_cost(grid, **POINT))
        for sd in grid[::16].tolist():
            assert curve(sd) == model.transistor_cost(sd, **POINT)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_optimal_sd_equals_golden_search_over_transistor_cost(config):
    model = CONFIGS[config]
    sd0 = model.design_model.sd0
    lo = sd0 * (1 + 1e-6) + 1e-9
    for point in _random_points(3, 20):
        def fn(sd, point=point):
            return float(model.transistor_cost(sd, **point))

        sd_opt, cost_opt, iterations, _ = retrying_golden_min(
            fn, lo, 1e6, 1e-10, 500, solver="reference", lo_floor=sd0)
        result = optimal_sd(model, **point, sd_max=1e6)
        assert (result.sd_opt, result.cost_opt, result.iterations) == \
            (sd_opt, cost_opt, iterations)


BAD = {
    "sd": [float("nan"), -1.0, 0.0, 50.0, "abc"],
    "n_transistors": [float("inf"), -1.0, 0],
    "feature_um": [float("nan"), -0.1, 1e-320],
    "n_wafers": [0.0, float("nan")],
    "yield_fraction": [0.0, 1.5],
    "cost_per_cm2": [-8.0, float("inf")],
}


def _first_error(model, kw):
    """The first failing check, in the order eq. (4) has always used."""
    try:
        check_positive(kw["sd"], "sd")
        check_positive(kw["feature_um"], "feature_um")
        check_fraction(kw["yield_fraction"], "yield_fraction")
        check_positive(kw["cost_per_cm2"], "cost_per_cm2")
        check_positive(kw["n_wafers"], "n_wafers")
        check_positive(kw["n_transistors"], "n_transistors")
        model.design_model.margin(kw["sd"])
        model.mask_cost(kw["feature_um"])
    except DomainError as exc:
        return str(exc)
    return None


def _bad_pairs(names=sorted(BAD)):
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for va in BAD[a]:
                for vb in BAD[b]:
                    yield {**POINT, "sd": 300.0, a: va, b: vb}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_two_bad_arguments_raise_the_first_error(config):
    model = CONFIGS[config]
    checked = 0
    for kw in _bad_pairs():
        expected = _first_error(model, kw)
        if expected is None:  # e.g. a subnormal feature size without masks
            continue
        with pytest.raises(DomainError) as exc_info:
            model.transistor_cost(**kw)
        assert str(exc_info.value) == expected, kw
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_optimal_sd_reports_the_first_bad_fixed_argument(config):
    model = CONFIGS[config]
    for kw in _bad_pairs(FIXED):
        expected = _first_error(model, kw)
        if expected is None:
            continue
        kw.pop("sd")
        with pytest.raises(DomainError) as exc_info:
            optimal_sd(model, **kw)
        assert str(exc_info.value) == expected, kw


def test_mask_model_error_follows_the_margin_check():
    model = CONFIGS["masks"]
    curve = model.sd_curve(**dict(POINT, feature_um=1e-320))
    with pytest.raises(DomainError, match="full-custom bound"):
        curve(50.0)
    with pytest.raises(DomainError, match="mask-count model"):
        curve(300.0)


class TestMarginFastPath:
    def test_float_margin_equals_array_margin(self):
        design = PAPER_FIGURE4_MODEL.design_model
        sds = np.concatenate([np.nextafter(100.0, np.inf, dtype=float)[None],
                              np.geomspace(100.0 + 1e-9, 1e300, 500)])
        array_margin = design.margin(sds)
        for sd, expected in zip(sds.tolist(), array_margin.tolist()):
            assert design.margin(sd) == expected

    @pytest.mark.parametrize("sd, message", [
        (100.0, "s_d must exceed the full-custom bound s_d0=100.0; got 100.0"),
        (50.0, "s_d must exceed the full-custom bound s_d0=100.0; got 50.0"),
        (-3.0, "sd must be > 0; got -3.0"),
        (float("inf"), "sd must be finite; got inf"),
        (float("nan"), "sd must be finite; got nan"),
    ])
    def test_float_messages(self, sd, message):
        with pytest.raises(DomainError) as exc_info:
            PAPER_FIGURE4_MODEL.design_model.margin(sd)
        assert str(exc_info.value) == message


class TestObservability:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def _span_names(self):
        return [s.name for s in obs.get_tracer().spans]

    def test_one_curve_span_per_solve(self):
        with obs.enabled():
            optimal_sd(PAPER_FIGURE4_MODEL, **POINT)
        names = self._span_names()
        assert names.count("cost.total.TotalCostModel.sd_curve") == 1
        assert "cost.total.TotalCostModel.transistor_cost" not in names
        curve_records = [r for r in obs.get_ledger().records
                         if r.source.endswith("TotalCostModel.sd_curve")]
        assert len(curve_records) == 1
        assert curve_records[0].equation == "4"
        assert set(curve_records[0].params) == set(FIXED)

    def test_transistor_cost_opens_the_curve_span(self):
        with obs.enabled():
            PAPER_FIGURE4_MODEL.transistor_cost(300.0, **POINT)
        names = self._span_names()
        assert names.count("cost.total.TotalCostModel.transistor_cost") == 1
        assert names.count("cost.total.TotalCostModel.sd_curve") == 1


# -- the in-place evaluation: curve(sd, out=, scratch=) ------------------

INPLACE_MODELS = [
    *CONFIGS.values(),
    TotalCostModel(design_model=DesignCostModel(p2=2.0)),
    TotalCostModel(design_model=DesignCostModel(p2=0.5, sd0=37.5),
                   utilization=0.3),
    TotalCostModel(design_model=DesignCostModel(a0=1e300, p1=3.0, p2=7.0)),
]

#: Margins above s_d0, biased towards the divergence and towards overflow.
margins = st.one_of(
    st.floats(min_value=5e-324, max_value=1e-6),
    st.floats(min_value=1e-6, max_value=1e4),
    st.floats(min_value=1e4, max_value=1e308),
)
#: Each bad value fails a different check: finite, > 0, > s_d0.
bad_sd = st.sampled_from([float("nan"), float("inf"), -float("inf"),
                          -1.0, 0.0, "sd0", "below"])


@st.composite
def sd_blocks(draw, sd0):
    good = draw(st.lists(margins, min_size=0, max_size=40))
    sd = [sd0 + m for m in good]
    for _ in range(draw(st.integers(0, 3))):
        bad = draw(bad_sd)
        value = {"sd0": sd0, "below": sd0 * 0.5}.get(bad, bad)
        sd.insert(draw(st.integers(0, len(sd))), value)
    return np.array(sd, dtype=float)


@st.composite
def fixed_points(draw):
    yield_fraction = draw(st.one_of(
        st.floats(min_value=1e-300, max_value=1.0),
        st.floats(min_value=0.999999, max_value=1.0)))
    return dict(
        n_transistors=10 ** draw(st.floats(min_value=0.0, max_value=300.0)),
        feature_um=draw(st.one_of(st.floats(min_value=0.01, max_value=2.0),
                                  st.just(1e-320))),
        n_wafers=10 ** draw(st.floats(min_value=-300.0, max_value=300.0)),
        yield_fraction=yield_fraction,
        cost_per_cm2=draw(st.floats(min_value=1e-3, max_value=1e6)))


def _outcome(fn):
    """``("ok", bits)`` or ``("error", message)`` for one evaluation."""
    try:
        with np.errstate(all="ignore"):
            values = fn()
    except DomainError as exc:
        return ("error", str(exc))
    return ("ok", np.asarray(values, dtype=float).view(np.int64).tolist())


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_in_place_curve_equals_general_curve(data):
    model = data.draw(st.sampled_from(INPLACE_MODELS))
    point = data.draw(fixed_points())
    try:
        with np.errstate(all="ignore"):
            curve = model.sd_curve(**point)
    except DomainError:
        return
    sd = data.draw(sd_blocks(model.design_model.sd0))
    out = np.full_like(sd, 7.0)
    scratch = np.full_like(sd, 7.0)
    expected = _outcome(lambda: curve(sd))
    assert _outcome(lambda: curve(sd, out=out, scratch=scratch)) == expected
    if expected[0] == "ok":
        assert _outcome(lambda: out) == expected
    kernel = Eq4SdKernel(model, **point)
    assert _outcome(lambda: kernel.batch(sd)) == expected
