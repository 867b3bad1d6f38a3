"""Sensitivity and Pareto analysis tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import PAPER_FIGURE4_MODEL
from repro.errors import CollectedErrors, DomainError
from repro.optimize import optimum as optimum_mod
from repro.optimize import pareto as pareto_mod
from repro.optimize import (
    DesignPoint,
    evaluate_front,
    evaluate_points,
    knee_point,
    optimal_sd,
    optimum_vs_volume,
    parameter_elasticities,
    pareto_front,
    tornado,
)
from repro.robust import ErrorPolicy

POINT = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5000,
             yield_fraction=0.4, cost_per_cm2=8.0)


class TestDesignPoint:
    """The contract callers rely on: fields, order, value semantics."""

    def test_positional_and_keyword_construction_agree(self):
        by_position = DesignPoint(200.0, 1.5e-05, 2.5e-06, 3e7)
        by_keyword = DesignPoint(design_cost_usd=3e7, transistor_cost_usd=2.5e-06,
                                 die_area_cm2=1.5e-05, sd=200.0)
        assert by_position == by_keyword
        assert (by_position.sd, by_position.die_area_cm2,
                by_position.transistor_cost_usd,
                by_position.design_cost_usd) == (200.0, 1.5e-05, 2.5e-06, 3e7)
        assert by_position.objectives() == (1.5e-05, 2.5e-06, 3e7)

    def test_immutable(self):
        point = DesignPoint(200.0, 1.0, 2.0, 3.0)
        with pytest.raises(AttributeError):
            point.sd = 300.0
        with pytest.raises(AttributeError):
            point.extra = 1.0

    def test_equal_points_hash_equal(self):
        a = DesignPoint(200.0, 1.0, 2.0, 3.0)
        b = DesignPoint(200.0, 1.0, 2.0, 3.0)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, DesignPoint(201.0, 1.0, 2.0, 3.0)}) == 2

    def test_repr_is_unchanged(self):
        assert repr(DesignPoint(200.0, 1.5e-05, 2.5e-06, 3e7)) == (
            "DesignPoint(sd=200.0, die_area_cm2=1.5e-05, "
            "transistor_cost_usd=2.5e-06, design_cost_usd=30000000.0)")

    def test_front_points_are_plain_floats(self):
        front = evaluate_front(PAPER_FIGURE4_MODEL, **POINT)
        assert front and all(type(v) is float for p in front for v in p)


class TestElasticities:
    @pytest.fixture(scope="class")
    def elas(self):
        return parameter_elasticities(
            PAPER_FIGURE4_MODEL, POINT,
            parameters=["n_wafers", "cost_per_cm2", "a0", "n_transistors"])

    def test_volume_elasticity_negative(self, elas):
        # More volume -> denser optimum.
        assert elas["n_wafers"] < 0

    def test_design_amplitude_elasticity_positive(self, elas):
        # Costlier design -> sparser optimum.
        assert elas["a0"] > 0

    def test_cost_per_cm2_elasticity_negative(self, elas):
        # Costlier silicon -> denser optimum.
        assert elas["cost_per_cm2"] < 0

    def test_a0_and_volume_mirror(self, elas):
        # a0 and 1/N_w enter eq.(5) identically -> equal-magnitude,
        # opposite-sign elasticities.
        assert elas["a0"] == pytest.approx(-elas["n_wafers"], rel=0.05)

    def test_unknown_parameter_raises(self):
        with pytest.raises(DomainError, match="unknown parameter"):
            parameter_elasticities(PAPER_FIGURE4_MODEL, POINT, parameters=["bogus"])

    def test_yield_of_one_takes_the_backward_difference(self):
        point = dict(POINT, yield_fraction=1.0)
        got = parameter_elasticities(PAPER_FIGURE4_MODEL, point,
                                     parameters=["yield_fraction"])
        low = optimal_sd(PAPER_FIGURE4_MODEL,
                         **dict(point, yield_fraction=0.95)).sd_opt
        high = optimal_sd(PAPER_FIGURE4_MODEL, **point).sd_opt
        expected = (np.log(high) - np.log(low)) / (np.log(1.0) - np.log(0.95))
        assert np.isfinite(got["yield_fraction"])
        assert got["yield_fraction"] == expected


class TestTornado:
    def test_sorted_by_cost_swing(self):
        entries = tornado(PAPER_FIGURE4_MODEL, POINT, {
            "n_wafers": (2000, 20_000),
            "yield_fraction": (0.3, 0.9),
            "p2": (1.0, 1.4),
        })
        swings = [e.cost_swing for e in entries]
        assert swings == sorted(swings, reverse=True)

    def test_entries_carry_both_excursions(self):
        entries = tornado(PAPER_FIGURE4_MODEL, POINT, {"n_wafers": (2000, 20_000)})
        e = entries[0]
        assert e.sd_opt_low > e.sd_opt_high  # more volume -> denser
        assert e.cost_opt_low > e.cost_opt_high

    def test_invalid_excursion_raises(self):
        with pytest.raises(DomainError, match="low < high"):
            tornado(PAPER_FIGURE4_MODEL, POINT, {"n_wafers": (20_000, 2000)})


#: Between ``sd_opt`` at ``n_wafers=5000`` (310.4) and at 4750 (316.0):
#: the base point solves, and a 5 % lower volume clips.
CLIPPING_SD_MAX = 313.5


class TestSharedSetupAgainstOptimalSdLoop:
    """Every scan gives the results and diagnostics of a plain
    ``optimal_sd`` loop: the same scan with the shared setup switched off,
    so that each solve runs ``optimal_sd`` itself."""

    CASES = {
        "elasticities-clip": (parameter_elasticities, (POINT,),
                              dict(sd_max=CLIPPING_SD_MAX)),
        "elasticities-invalid": (parameter_elasticities, (POINT,),
                                 dict(rel_step=1.5)),
        "tornado": (tornado, (POINT, {
            "n_wafers": (4750.0, 5250.0),  # the low end clips
            "yield_fraction": (-0.1, 0.5),  # invalid low end
            "cost_per_cm2": (7.9, 8.1),
            "p2": (1.19, 1.21),
        }), dict(sd_max=CLIPPING_SD_MAX)),
        "optimum-vs-volume": (optimum_vs_volume, (
            1e7, 0.18, 0.4, 8.0, [4750.0, -1.0, 5000.0, 5250, 1e5]),
            dict(sd_max=CLIPPING_SD_MAX)),
    }

    @staticmethod
    def _run(monkeypatch, shared, scan, args, kwargs, policy):
        calls = []
        plain = optimum_mod.optimal_sd

        def counted(*a, **k):
            calls.append(a)
            return plain(*a, **k)

        with monkeypatch.context() as patch:
            patch.setattr(optimum_mod, "optimal_sd", counted)
            if not shared:
                patch.setattr(optimum_mod._SharedSetup, "_shared",
                              lambda self, point, cost: None)
            try:
                out = repr(scan(PAPER_FIGURE4_MODEL, *args, **kwargs,
                                policy=policy))
            except CollectedErrors as err:
                out = err.diagnostics
            except DomainError as err:
                out = (type(err), str(err))
        return out, len(calls)

    @pytest.mark.parametrize("policy", list(ErrorPolicy), ids=lambda p: p.name)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_results_and_diagnostics(self, monkeypatch, case, policy):
        scan, args, kwargs = self.CASES[case]
        shared, shared_calls = self._run(monkeypatch, True, scan, args,
                                         kwargs, policy)
        plain, plain_calls = self._run(monkeypatch, False, scan, args,
                                       kwargs, policy)
        assert shared == plain
        # The shared setup took the points that solve (a +150 % step makes
        # every low end invalid, and under RAISE the scan may stop at its
        # first solve, which fails).
        assert shared_calls <= plain_calls
        if case != "elasticities-invalid" and policy is not ErrorPolicy.RAISE:
            assert shared_calls < plain_calls
        if policy is ErrorPolicy.COLLECT:
            assert isinstance(shared, tuple) and shared
            messages = " ".join(d.message for d in shared)
            if case != "elasticities-invalid":
                assert "clipped" in messages


class TestPareto:
    @pytest.fixture(scope="class")
    def points(self):
        return evaluate_points(PAPER_FIGURE4_MODEL, **POINT)

    def test_points_cover_grid(self, points):
        assert len(points) == 200

    def test_front_nonempty_subset(self, points):
        front = pareto_front(points)
        assert 0 < len(front) <= len(points)

    def test_front_sorted_by_sd(self, points):
        front = pareto_front(points)
        sds = [p.sd for p in front]
        assert sds == sorted(sds)

    def test_no_front_point_dominated(self, points):
        front = pareto_front(points)
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (all(x <= y for x, y in zip(b.objectives(), a.objectives()))
                             and any(x < y for x, y in zip(b.objectives(), a.objectives())))
                assert not dominates

    def test_front_contains_cost_minimum(self, points):
        # The transistor-cost minimiser is never dominated.
        best = min(points, key=lambda p: p.transistor_cost_usd)
        front = pareto_front(points)
        assert any(p.sd == best.sd for p in front)

    def test_trade_off_structure(self, points):
        # Along the front, die area rises while design cost falls.
        front = pareto_front(points)
        if len(front) >= 2:
            assert front[0].die_area_cm2 < front[-1].die_area_cm2
            assert front[0].design_cost_usd > front[-1].design_cost_usd

    def test_knee_point_member_of_front(self, points):
        front = pareto_front(points)
        knee = knee_point(front)
        assert knee in front

    def test_knee_of_single_point_front(self, points):
        single = [points[0]]
        assert knee_point(single) is points[0]

    def test_empty_inputs_raise(self):
        with pytest.raises(DomainError):
            pareto_front([])
        with pytest.raises(DomainError):
            knee_point([])


def _loop_front(points):
    """The per-point dominance loop ``pareto_front`` replaced."""
    objs = np.array([p.objectives() for p in points])
    keep = [p for i, p in enumerate(points)
            if not np.any(np.all(objs <= objs[i], axis=1)
                          & np.any(objs < objs[i], axis=1))]
    keep.sort(key=lambda p: p.sd)
    return keep


class TestParetoAgainstLoop:
    @staticmethod
    def _random_points(seed, n, levels):
        # Few objective levels force ties; repeated rows force duplicates.
        rng = np.random.default_rng(seed)
        objs = rng.integers(0, levels, size=(n, 3)).astype(float)
        dup = min(5, n - n // 2)
        objs[n // 2:n // 2 + dup] = objs[:dup]
        sds = rng.permutation(n) + 101.0
        return [DesignPoint(float(sd), *map(float, row)) for sd, row in zip(sds, objs)]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n, levels", [(1, 3), (7, 2), (60, 4), (250, 9)])
    def test_kept_points_and_order_match_loop(self, seed, n, levels):
        points = self._random_points(seed, n, levels)
        assert pareto_front(points) == _loop_front(points)

    def test_row_blocks_match_loop(self, monkeypatch):
        points = self._random_points(11, 97, 5)
        expected = _loop_front(points)
        for cells in (1, 97, 300, 97 * 97):
            monkeypatch.setattr(pareto_mod, "_DOMINANCE_CELLS", cells)
            assert pareto_front(points) == expected

    def test_nan_objectives_match_loop(self):
        points = self._random_points(5, 40, 6)
        points[3] = DesignPoint(points[3].sd, np.nan, 1.0, 1.0)
        points[9] = DesignPoint(points[9].sd, 0.0, np.nan, 0.0)
        assert pareto_front(points) == _loop_front(points)

    def test_equal_sd_keeps_input_order(self):
        a = DesignPoint(200.0, 1.0, 2.0, 3.0)
        b = DesignPoint(200.0, 3.0, 2.0, 1.0)
        assert pareto_front([b, a]) == [b, a]


def _mask_front(points):
    """Reference front: (n, n) dominance masks over every point, with no
    projection filter."""
    objs = np.array([p.objectives() for p in points])
    le = np.ones((len(points), len(points)), dtype=bool)
    lt = np.zeros_like(le)
    for col in objs.T:
        le &= col[None, :] <= col[:, None]
        lt |= col[None, :] < col[:, None]
    dominated = (le & lt).any(axis=1)
    keep = [p for p, d in zip(points, dominated.tolist()) if not d]
    keep.sort(key=lambda p: p.sd)
    return keep


#: Few distinct values (ties, signed zeros, NaN) mixed with arbitrary ones.
objective = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, float("nan")]),
                      st.floats(-1e3, 1e3))


@st.composite
def design_points(draw):
    rows = draw(st.lists(st.tuples(objective, objective, objective),
                         min_size=1, max_size=40))
    rows += draw(st.lists(st.sampled_from(rows), max_size=10))  # duplicates
    sds = draw(st.lists(st.sampled_from([150.0, 300.0]) | st.floats(101.0, 5e3),
                        min_size=len(rows), max_size=len(rows)))
    order = draw(st.permutations(range(len(rows))))
    return [DesignPoint(sd, *rows[i]) for sd, i in zip(sds, order)]


@settings(max_examples=300, deadline=None)
@given(points=design_points())
def test_front_equals_the_dominance_mask(points):
    assert pareto_front(points) == _mask_front(points)


class TestEvaluateFront:
    @pytest.mark.parametrize("values", [
        None,
        [150.0, 300.0, 150.0, 1200.0, 300.0],
        np.geomspace(100.5, 5000.0, 50)[::-1],
    ])
    def test_equals_the_front_of_the_points(self, values):
        points = evaluate_points(PAPER_FIGURE4_MODEL, **POINT, sd_values=values)
        front = evaluate_front(PAPER_FIGURE4_MODEL, **POINT, sd_values=values)
        assert front == _mask_front(points)
        assert all(type(v) is float for p in front for v in (p.sd, *p.objectives()))

    def test_every_point_of_an_sd_grid_is_on_the_front(self):
        # Area rises and design cost falls with s_d: no point dominates
        # another, so the projection sweep clears them all.
        points = evaluate_points(PAPER_FIGURE4_MODEL, **POINT)
        assert evaluate_front(PAPER_FIGURE4_MODEL, **POINT) == points
        assert len(points) == 200

    def test_mask_drops_and_reports_like_evaluate_points(self):
        sd_values = np.array([50.0, 150.0, 90.0, 300.0, 100.0, 1200.0])
        expected, got = [], []
        points = evaluate_points(PAPER_FIGURE4_MODEL, **POINT, sd_values=sd_values,
                                 policy="mask", diagnostics=expected)
        front = evaluate_front(PAPER_FIGURE4_MODEL, **POINT, sd_values=sd_values,
                               policy="mask", diagnostics=got)
        assert front == pareto_front(points)
        assert got == expected

    def test_nothing_kept_is_an_empty_front(self):
        assert evaluate_front(PAPER_FIGURE4_MODEL, **POINT, sd_values=[50.0, 90.0],
                              policy="mask") == []


class TestEvaluatePointsMask:
    def test_masked_candidates_dropped_in_grid_order(self):
        sd_values = np.array([50.0, 150.0, 90.0, 300.0, 100.0, 1200.0])
        diagnostics = []
        points = evaluate_points(PAPER_FIGURE4_MODEL, **POINT, sd_values=sd_values,
                                 policy="mask", diagnostics=diagnostics)
        assert [p.sd for p in points] == [150.0, 300.0, 1200.0]
        assert len(diagnostics) == 3
        full = evaluate_points(PAPER_FIGURE4_MODEL, **POINT,
                               sd_values=[150.0, 300.0, 1200.0])
        assert points == full
        assert all(type(v) is float for p in points for v in (p.sd, *p.objectives()))
