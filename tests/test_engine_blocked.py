"""Blocked in-process evaluation: identical to one unblocked batch.

:func:`repro.engine.core._blocked_batch` evaluates grids in
``_BLOCK``-point slices. Splitting must not be observable: values are
bit-identical to one ``kernel.batch`` over the whole grid at every
block boundary, MASK/COLLECT diagnostics equal the per-point
``_scalar_loop``'s (a point the batch raises for re-runs alone), and a
RAISE grid raises the unblocked exception even when the bad point sits
in a later block. Large grids spread the
blocks over threads, the engine's only parallel path.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.cost import DEFAULT_GENERALIZED_MODEL, PAPER_FIGURE4_MODEL
from repro.engine import evaluate_grid
from repro.engine import core as engine_core
from repro.engine.kernels import (
    DesignObjectivesKernel,
    Eq4SdKernel,
    Eq4VolumeKernel,
    Eq7SdKernel,
)
from repro.errors import CollectedErrors, ReproError
from repro.robust import ErrorPolicy

REPO = Path(__file__).resolve().parent.parent
B = engine_core._BLOCK
FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5_000,
             yield_fraction=0.4, cost_per_cm2=8.0)
#: Below the eq.-(6) divergence at s_d0 = 100: infeasible for s_d kernels.
BAD_SD = 50.0


def _sd_grid(n, bad, fill):
    grid = np.linspace(150.0, 1200.0, n)
    grid[list(bad)] = fill
    return grid


def eq4(n, bad=(), fill=BAD_SD):
    return Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A), _sd_grid(n, bad, fill)


def eq7(n, bad=(), fill=BAD_SD):
    kernel = Eq7SdKernel(DEFAULT_GENERALIZED_MODEL, n_transistors=1e7,
                         feature_um=0.18, n_wafers=5_000)
    return kernel, _sd_grid(n, bad, fill)


def volume(n, bad=(), fill=-1.0):
    kernel = Eq4VolumeKernel(PAPER_FIGURE4_MODEL, sd=300.0,
                             n_transistors=1e7, feature_um=0.18,
                             yield_fraction=0.4, cost_per_cm2=8.0)
    grid = np.geomspace(100.0, 1e6, n)
    grid[list(bad)] = fill
    return kernel, grid


def objectives(n, bad=(), fill=BAD_SD):
    return (DesignObjectivesKernel(PAPER_FIGURE4_MODEL, **FIG4A),
            _sd_grid(n, bad, fill))


KERNELS = {"eq4": eq4, "eq7": eq7, "volume": volume,
           "objectives": objectives}
SIZES = (B - 1, B, B + 1, 3 * B + 7)
POLICIES = (ErrorPolicy.RAISE, ErrorPolicy.MASK, ErrorPolicy.COLLECT)


def _evaluate(kernel, grid, policy):
    return evaluate_grid(kernel, grid, policy=policy, where="test.blocked",
                         equation="4", parameter="x")


def _diagnostics(fn):
    """The diagnostics tuple of a MASK run, or of a COLLECT run's raise."""
    try:
        return fn()
    except CollectedErrors as err:
        return tuple(err.diagnostics)


def _boundary_bad(n, block):
    """Infeasible indices on both sides of the first block boundary, in
    a later block, and at both ends of the grid."""
    return sorted({0, block - 1, block, 2 * block + 1, n - 1} & set(range(n)))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(KERNELS))
class TestBlockBoundaryParity:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
    def test_bit_identical_to_unblocked_batch(self, name, size, policy):
        kernel, grid = KERNELS[name](size)
        evaluation = _evaluate(kernel, grid, policy)
        assert evaluation.diagnostics == ()
        np.testing.assert_array_equal(evaluation.values, kernel.batch(grid))

    def test_mask_mixed_blocks_match_unblocked_scatter(self, name, size):
        bad = _boundary_bad(size, B)
        kernel, grid = KERNELS[name](size, bad)
        mask = np.asarray(kernel.feasible(grid), dtype=bool)
        outputs = kernel.n_outputs
        expected = np.full((outputs, size) if outputs > 1 else size, np.nan)
        expected[..., mask] = kernel.batch(grid[mask])
        evaluation = _evaluate(kernel, grid, ErrorPolicy.MASK)
        np.testing.assert_array_equal(evaluation.values, expected)
        assert [d.index for d in evaluation.diagnostics] == bad


@pytest.mark.parametrize("policy", POLICIES[1:], ids=lambda p: p.name)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_boundary_diagnostics_match_scalar_loop(name, policy, monkeypatch):
    """Every block boundary case at a small block size, where the scalar
    reference loop over the whole grid stays cheap."""
    block = 8
    monkeypatch.setattr(engine_core, "_BLOCK", block)
    for size in (block - 1, block, block + 1, 3 * block + 7):
        bad = _boundary_bad(size, block)
        kernel, grid = KERNELS[name](size, bad)
        blocked = _diagnostics(lambda: _evaluate(kernel, grid, policy).diagnostics)
        scalar = _diagnostics(lambda: engine_core._scalar_loop(
            kernel, grid, policy, "test.blocked", "4", "x")[1])
        assert blocked == scalar
        assert [d.index for d in blocked] == bad


def _counting_points(monkeypatch, kernel):
    """Record every ``x`` the kernel's scalar ``point`` is called with."""
    calls = []
    point = type(kernel).point

    def counted(self, x):
        calls.append(x)
        return point(self, x)

    monkeypatch.setattr(type(kernel), "point", counted)
    return calls


def test_one_raising_point_reruns_alone(monkeypatch):
    """``s_d = 1e300`` passes ``feasible`` but makes the batch raise:
    only that point re-runs through ``kernel.point``, not the grid."""
    bad = 54_321
    kernel, grid = eq4(100_000, [bad], 1e300)
    calls = _counting_points(monkeypatch, kernel)
    evaluation = _evaluate(kernel, grid, ErrorPolicy.MASK)
    assert calls == [1e300]
    assert np.isnan(evaluation.values[bad])
    np.testing.assert_array_equal(np.delete(evaluation.values, bad),
                                  kernel.batch(np.delete(grid, bad)))
    _, scalar = engine_core._scalar_loop(kernel, grid, ErrorPolicy.MASK,
                                         "test.blocked", "4", "x")
    assert evaluation.diagnostics == scalar
    assert [d.index for d in scalar] == [bad]


def _counting_feasible(monkeypatch, kernel):
    """Record the size of every slice the kernel's ``feasible`` splits."""
    calls = []
    feasible = type(kernel).feasible

    def counted(self, xs):
        calls.append(xs.size)
        return feasible(self, xs)

    monkeypatch.setattr(type(kernel), "feasible", counted)
    return calls


@pytest.mark.parametrize("policy", POLICIES[1:], ids=lambda p: p.name)
def test_clean_in_place_slices_skip_the_feasibility_split(policy, monkeypatch):
    """An in-place write that returns has proven its slice clean."""
    kernel, grid = eq4(3 * B + 7)
    calls = _counting_feasible(monkeypatch, kernel)
    evaluation = _evaluate(kernel, grid, policy)
    assert calls == []
    assert evaluation.diagnostics == ()
    raised = _evaluate(kernel, grid, ErrorPolicy.RAISE).values
    assert evaluation.values.tobytes() == raised.tobytes()


@pytest.mark.parametrize("fill", [BAD_SD, 100.0, 1e300])
def test_only_the_slice_whose_write_raised_is_split(fill, monkeypatch):
    """One bad point in block 2: that slice alone is split, and only the
    bad point re-runs through ``kernel.point``."""
    bad = 2 * B + 5
    kernel, grid = eq4(3 * B + 7, [bad], fill)
    feasible_calls = _counting_feasible(monkeypatch, kernel)
    point_calls = _counting_points(monkeypatch, kernel)
    evaluation = _evaluate(kernel, grid, ErrorPolicy.MASK)
    assert feasible_calls == [B]
    assert point_calls == [fill]
    np.testing.assert_array_equal(np.delete(evaluation.values, bad),
                                  kernel.batch(np.delete(grid, bad)))
    _, scalar = engine_core._scalar_loop(kernel, grid, ErrorPolicy.MASK,
                                         "test.blocked", "4", "x")
    assert evaluation.diagnostics == scalar
    assert [d.index for d in scalar] == [bad]


@pytest.mark.parametrize("policy", POLICIES[1:], ids=lambda p: p.name)
@pytest.mark.parametrize("k", [1, 4])
def test_in_place_diagnostics_match_scalar_loop_on_threads(k, policy, threads,
                                                           monkeypatch):
    """Hostile points in their own slices: each such slice, and no
    other, is split, on one thread and on four."""
    threads(k)
    (kernel, grid), bad = _hostile("eq4", 40 * SMALL_BLOCK + 5)
    calls = _counting_feasible(monkeypatch, kernel)
    blocked = _diagnostics(lambda: _evaluate(kernel, grid, policy).diagnostics)
    scalar = _diagnostics(lambda: engine_core._scalar_loop(
        kernel, grid, policy, "test.blocked", "4", "x")[1])
    assert tuple(map(repr, blocked)) == tuple(map(repr, scalar))
    assert [d.index for d in blocked] == bad
    assert calls == [SMALL_BLOCK] * len(bad)


@pytest.mark.parametrize("name", ["eq7", "volume", "objectives"])
def test_other_kernels_split_every_slice(name, monkeypatch):
    """A kernel that is not in-place may return non-finite values
    without raising: every slice keeps the split and the finite scan."""
    kernel, grid = KERNELS[name](3 * B + 7)
    calls = _counting_feasible(monkeypatch, kernel)
    evaluation = _evaluate(kernel, grid, ErrorPolicy.MASK)
    assert calls == [B, B, B, 7]
    assert evaluation.diagnostics == ()


@pytest.mark.parametrize("policy", POLICIES[1:], ids=lambda p: p.name)
@pytest.mark.parametrize("name", ["eq4", "objectives"])
def test_raising_points_rerun_alone_on_threads(name, policy, threads,
                                               monkeypatch):
    """Points the batch raises for, in clean and in mixed slices (one
    with an infeasible point too), each re-run alone on any thread."""
    threads(4)
    n = 40 * SMALL_BLOCK + 5
    raising = [3, SMALL_BLOCK + 40, 17 * SMALL_BLOCK, n - 1]
    kernel, grid = KERNELS[name](n, raising, 1e300)
    grid[SMALL_BLOCK + 2] = BAD_SD
    calls = _counting_points(monkeypatch, kernel)
    blocked = _diagnostics(lambda: _evaluate(kernel, grid, policy).diagnostics)
    assert calls == [grid[i] for i in sorted(raising + [SMALL_BLOCK + 2])]
    scalar = _diagnostics(lambda: engine_core._scalar_loop(
        kernel, grid, policy, "test.blocked", "4", "x")[1])
    assert blocked == scalar


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_raise_in_later_block_matches_unblocked_exception(name):
    bad_index = 2 * B + 5
    kernel, grid = KERNELS[name](3 * B + 7, [bad_index])
    with pytest.raises(ReproError) as unblocked:
        kernel.batch(grid)
    with pytest.raises(ReproError) as blocked:
        _evaluate(kernel, grid, ErrorPolicy.RAISE)
    assert type(blocked.value) is type(unblocked.value)
    assert str(blocked.value) == str(unblocked.value)


def test_thread_crossover_tool_prints_the_table():
    out = subprocess.run(
        [sys.executable, str(REPO / "tools" / "thread_crossover.py"),
         "--sizes", "20000", "--repeats", "2"],
        capture_output=True, text=True, check=True, timeout=120).stdout
    lines = out.strip().splitlines()
    assert lines[0].startswith("# Eq4SdKernel")
    assert lines[1].split() == ["points", "threads_ms", "workers",
                                "blocked_ms", "unblocked_ms", "winner"]
    assert len(lines) == 3
    points, threads, workers, blocked, unblocked, winner = lines[2].split()
    assert points == "20000"
    # One 64k-point block: the thread column runs on the calling thread.
    assert int(workers) == 1
    assert min(float(threads), float(blocked), float(unblocked)) > 0
    assert winner in ("threads", "blocked")


def test_block_threads_follow_the_cpu_affinity(monkeypatch):
    """A process pinned to one CPU starts no helper thread."""
    monkeypatch.setattr(engine_core, "_enabled", True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    kernel, grid = eq4(1_000_000)
    assert _evaluate(kernel, grid, ErrorPolicy.RAISE).workers == 1


def test_engine_and_serve_import_no_process_pool():
    code = ("import sys, repro.engine, repro.serve; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    assert out.strip() == "[]"


# -- the blocks on several threads -----------------------------------------

#: Small blocks, so a few thousand points make dozens of them.
SMALL_BLOCK = 64
#: One hostile value per check: finite, > 0 (or > s_d0), and s_d0 itself.
HOSTILE = {"volume": [np.nan, np.inf, -np.inf, -1.0, 0.0]}
HOSTILE_SD = [np.nan, np.inf, -np.inf, BAD_SD, 100.0]


@pytest.fixture()
def threads(monkeypatch):
    """``threads(k)`` runs the next evaluations on ``k`` threads over
    ``SMALL_BLOCK``-point blocks, whatever the grid size."""
    monkeypatch.setattr(engine_core, "_BLOCK", SMALL_BLOCK)
    monkeypatch.setattr(engine_core, "_THREADS_FROM", 0)

    def use(k):
        monkeypatch.setattr(engine_core, "block_threads", lambda: k)
    return use


def _hostile(name, n):
    """A grid with each hostile value in a different, non-adjacent block."""
    bad = [(2 * k + 1) * SMALL_BLOCK + 3 * k for k in range(5)]
    return KERNELS[name](n, bad, HOSTILE.get(name, HOSTILE_SD)), bad


def _outcome(kernel, grid, policy):
    """What one evaluation gave: values and diagnostics, or the error.

    Diagnostics compare by repr: a NaN ``value`` is never ``==`` itself.
    """
    try:
        evaluation = _evaluate(kernel, grid, policy)
    except CollectedErrors as err:
        return ("collected", tuple(map(repr, err.diagnostics)))
    except ReproError as err:
        return ("raised", type(err), str(err))
    return ("ok", evaluation.values.view(np.int64).tobytes(),
            tuple(map(repr, evaluation.diagnostics)), evaluation.workers)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("hostile", [False, True], ids=["clean", "hostile"])
def test_threads_bit_identical_to_one_thread(name, policy, hostile, threads):
    n = 40 * SMALL_BLOCK + 5
    if hostile:
        (kernel, grid), bad = _hostile(name, n)
    else:
        kernel, grid = KERNELS[name](n)
    threads(1)
    single = _outcome(kernel, grid, policy)
    threads(4)
    threaded = _outcome(kernel, grid, policy)
    if single[0] == "ok":
        assert threaded[:-1] == single[:-1]
        assert (single[-1], threaded[-1]) == (1, 4)
    else:
        assert threaded == single
    if hostile and policy is ErrorPolicy.MASK:
        assert len(single[2]) == len(bad)
    if hostile and policy is ErrorPolicy.RAISE:
        with pytest.raises(ReproError) as unblocked:
            kernel.batch(grid)
        assert threaded == ("raised", type(unblocked.value),
                            str(unblocked.value))


@pytest.mark.parametrize("policy", POLICIES[:2], ids=lambda p: p.name)
def test_threads_at_the_real_block_size(policy, monkeypatch):
    """Eq. (4) in place over full-size blocks, the sweep's own path."""
    n = engine_core._THREADS_FROM + 2 * B + 7
    kernel, grid = eq4(n, [B + 1, 3 * B + 2, n - 1], [np.nan, BAD_SD, np.inf]) \
        if policy is ErrorPolicy.MASK else eq4(n)
    monkeypatch.setattr(engine_core, "_enabled", False)
    single = _outcome(kernel, grid, policy)
    monkeypatch.setattr(engine_core, "block_threads", lambda: 2)
    threaded = _outcome(kernel, grid, policy)
    assert threaded[:-1] == single[:-1]
    assert (single[-1], threaded[-1]) == (1, 2)


class HandOff:
    """A kernel wrapper that makes sure a helper thread evaluates a block.

    The calling thread's blocks wait until a helper has started one, and
    ``on_main``/``on_helper`` (default: the wrapped ``batch``) evaluate
    each block on the calling and on a helper thread. It defines no
    ``prepare``, so the engine copies its results into the output.
    """

    def __init__(self, kernel, on_main=None, on_helper=None):
        self.kernel = kernel
        self.n_outputs = kernel.n_outputs
        self.caller = threading.get_ident()
        self.helper_started = threading.Event()
        self.on_main = on_main or type(kernel).batch
        self.on_helper = on_helper or type(kernel).batch

    def batch(self, xs):
        if threading.get_ident() == self.caller:
            assert self.helper_started.wait(10.0)
            return self.on_main(self.kernel, xs)
        self.helper_started.set()
        return self.on_helper(self.kernel, xs)

    def feasible(self, xs):
        return self.kernel.feasible(xs)

    def point(self, x):
        return self.kernel.point(x)


@pytest.mark.parametrize("policy", POLICIES[:2], ids=lambda p: p.name)
def test_helper_exception_propagates(policy, threads):
    threads(2)
    kernel, grid = eq4(20 * SMALL_BLOCK)

    def boom(kernel, xs):
        raise RuntimeError("helper failed")

    with pytest.raises(RuntimeError, match="helper failed"):
        _evaluate(HandOff(kernel, on_helper=boom), grid, policy)


def test_helpers_finish_before_the_callers_exception(threads):
    threads(2)
    kernel, grid = eq4(20 * SMALL_BLOCK)
    finished = []

    def boom(kernel, xs):
        raise RuntimeError("caller failed")

    def slow(kernel, xs):
        time.sleep(0.2)
        finished.append(xs.size)
        return kernel.batch(xs)

    with pytest.raises(RuntimeError, match="caller failed"):
        _evaluate(HandOff(kernel, on_main=boom, on_helper=slow), grid,
                  ErrorPolicy.RAISE)
    # The helper's block completed, and it took no other after the failure.
    assert finished == [SMALL_BLOCK]


def test_helper_spans_parent_under_the_engine_span(threads):
    threads(2)
    kernel, grid = eq7(8 * SMALL_BLOCK)
    obs.disable()
    obs.reset()
    try:
        with obs.enabled():
            _evaluate(HandOff(kernel), grid, ErrorPolicy.RAISE)
        spans = list(obs.get_tracer().spans)
    finally:
        obs.disable()
        obs.reset()
    engine, = [s for s in spans if s.name == "engine.evaluate_grid"]
    costs = [s for s in spans if s.name.endswith("transistor_cost")]
    assert len(costs) == 8
    assert {s.parent_id for s in costs} == {engine.span_id}
    assert len({s.span_id for s in spans}) == len(spans)
    assert engine.attrs["workers"] == 2


def test_helper_runs_under_the_callers_errstate(threads):
    threads(2)
    kernel, grid = eq4(4 * SMALL_BLOCK)
    raised = []

    def record(kernel, xs):
        try:
            np.multiply(xs, 1e308)  # overflows: raises under over="raise"
        except FloatingPointError:
            raised.append(True)
            raise
        return kernel.batch(xs)

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _evaluate(HandOff(kernel, on_helper=record), grid, ErrorPolicy.RAISE)
    assert raised == [True]


def test_each_block_evaluated_exactly_once_under_contention(threads):
    """More threads than CPUs, a switch interval short enough to
    interleave inside the slice hand-out: every slice is taken once."""
    threads(8)
    kernel, grid = eq7(200 * SMALL_BLOCK + 3)
    taken = []

    def record(kernel, xs):
        taken.append(float(xs[0]))
        return type(kernel).batch(kernel, xs)

    wrapped = HandOff(kernel, on_main=record, on_helper=record)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        evaluation = _evaluate(wrapped, grid, ErrorPolicy.RAISE)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == grid[::SMALL_BLOCK].tolist()
    assert evaluation.workers == 8
    np.testing.assert_array_equal(evaluation.values, kernel.batch(grid))
