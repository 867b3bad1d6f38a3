"""Blocked in-process evaluation: identical to one unblocked batch.

:func:`repro.engine.core._blocked_batch` evaluates grids in
``_BLOCK``-point slices. Splitting must not be observable: values are
bit-identical to one ``kernel.batch`` over the whole grid at every
block boundary, MASK/COLLECT diagnostics equal the per-point
``_scalar_loop``'s, and a RAISE grid raises the unblocked exception
even when the bad point sits in a later block. The pool stays off at
every size the engine is measured at unless a caller lowers its
threshold.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cost import DEFAULT_GENERALIZED_MODEL, PAPER_FIGURE4_MODEL
from repro.engine import clear_cache, evaluate_grid
from repro.engine import core as engine_core
from repro.engine import parallel as engine_parallel
from repro.engine.kernels import (
    DesignObjectivesKernel,
    Eq4SdKernel,
    Eq4VolumeKernel,
    Eq7SdKernel,
    OperatingPointsKernel,
)
from repro.errors import CollectedErrors, ReproError
from repro.robust import ErrorPolicy

REPO = Path(__file__).resolve().parent.parent
B = engine_core._BLOCK
FIG4A = dict(n_transistors=1e7, feature_um=0.18, n_wafers=5_000,
             yield_fraction=0.4, cost_per_cm2=8.0)
#: Below the eq.-(6) divergence at s_d0 = 100: infeasible for s_d kernels.
BAD_SD = 50.0


def _sd_grid(n, bad):
    grid = np.linspace(150.0, 1200.0, n)
    grid[list(bad)] = BAD_SD
    return grid


def eq4(n, bad=()):
    return Eq4SdKernel(PAPER_FIGURE4_MODEL, **FIG4A), _sd_grid(n, bad)


def eq7(n, bad=()):
    kernel = Eq7SdKernel(DEFAULT_GENERALIZED_MODEL, n_transistors=1e7,
                         feature_um=0.18, n_wafers=5_000)
    return kernel, _sd_grid(n, bad)


def volume(n, bad=()):
    kernel = Eq4VolumeKernel(PAPER_FIGURE4_MODEL, sd=300.0,
                             n_transistors=1e7, feature_um=0.18,
                             yield_fraction=0.4, cost_per_cm2=8.0)
    grid = np.geomspace(100.0, 1e6, n)
    grid[list(bad)] = -1.0
    return kernel, grid


def objectives(n, bad=()):
    return DesignObjectivesKernel(PAPER_FIGURE4_MODEL, **FIG4A), _sd_grid(n, bad)


def operating_points(n, bad=()):
    rng = np.random.default_rng(n)
    sd = rng.uniform(150.0, 1200.0, n)
    sd[list(bad)] = BAD_SD
    kernel = OperatingPointsKernel(
        PAPER_FIGURE4_MODEL, sd=sd,
        n_transistors=rng.uniform(1e6, 1e8, n),
        feature_um=rng.choice([0.13, 0.18, 0.25], n),
        n_wafers=rng.uniform(1e3, 1e5, n),
        yield_fraction=rng.uniform(0.2, 0.9, n),
        cost_per_cm2=rng.uniform(4.0, 12.0, n))
    return kernel, np.arange(n, dtype=float)


KERNELS = {"eq4": eq4, "eq7": eq7, "volume": volume,
           "objectives": objectives, "operating_points": operating_points}
SIZES = (B - 1, B, B + 1, 3 * B + 7)
POLICIES = (ErrorPolicy.RAISE, ErrorPolicy.MASK, ErrorPolicy.COLLECT)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _evaluate(kernel, grid, policy):
    return evaluate_grid(kernel, grid, policy=policy, where="test.blocked",
                         equation="4", parameter="x", cache=False)


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
        assert evaluation.chunks == 1 and evaluation.diagnostics == ()
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
            kernel, grid, policy, "test.blocked", "4", "x", python=False)[1])
        assert blocked == scalar
        assert [d.index for d in blocked] == bad


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


def test_default_threshold_keeps_large_grids_in_process():
    assert engine_parallel.plan_chunks(10_000_000) == 1


def test_pool_crossover_tool_prints_the_table():
    out = subprocess.run(
        [sys.executable, str(REPO / "tools" / "pool_crossover.py"),
         "--sizes", "20000", "--repeats", "2"],
        capture_output=True, text=True, check=True, timeout=120).stdout
    lines = out.strip().splitlines()
    assert lines[0].startswith("# Eq4SdKernel")
    assert lines[1].split() == ["points", "pool_ms", "chunks", "blocked_ms",
                                "unblocked_ms", "winner"]
    assert len(lines) == 3
    points, pool, chunks, blocked, unblocked, winner = lines[2].split()
    # Two 10k-point chunks, one per worker of the default min(4, cpu) pool.
    assert points == "20000" and int(chunks) == min(2, os.cpu_count() or 1)
    assert min(float(pool), float(blocked), float(unblocked)) > 0
    assert winner in ("pool", "blocked")
