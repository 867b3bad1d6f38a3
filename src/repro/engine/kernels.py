"""Batched kernels — adapters from the model dataclasses to grid arrays.

A *kernel* freezes one model plus its fixed operating point and knows
how to evaluate a 1-D grid of the swept parameter three ways:

* :meth:`batch` — one vectorized NumPy call over the whole grid (the
  models are already array-friendly; the kernel just pins the fixed
  arguments);
* :meth:`point` — one scalar model call, byte-identical to the legacy
  per-point loops (the re-run that gives each failing point its
  diagnostic under MASK/COLLECT);
* :meth:`feasible` — a cheap vectorized predicate marking grid points
  the batch call can safely include; the dispatch re-runs the rest
  through :meth:`point` so every infeasible point produces the exact
  legacy diagnostic.

Kernels are frozen dataclasses of frozen models.

A kernel that can evaluate in place (today :class:`Eq4SdKernel`) also
defines ``prepare()`` and accepts ``batch(xs, out=, scratch=)``: the
engine calls ``prepare()`` on the calling thread before its block
threads share the kernel, and then has each block written straight
into the output through one scratch buffer per thread.

The in-place contract: ``batch(xs, out=, scratch=)`` either writes a
finite value for every point of ``xs`` or raises ``ReproError``; it
raises for every grid holding a point that :meth:`feasible` rejects.
A write that returns therefore needs no feasibility split and no
finite scan, and MASK/COLLECT take them only for a slice whose write
raised. A kernel whose ``batch`` can return a non-finite value without
raising does not define ``prepare``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..cost.design import margin_power
from ..cost.generalized import GeneralizedCostModel
from ..cost.total import TotalCostModel
from ..density.metrics import area_from_sd
from ..errors import ReproError
from . import pykernels as pyk

__all__ = [
    "Eq4SdKernel",
    "Eq7SdKernel",
    "Eq4VolumeKernel",
    "DesignObjectivesKernel",
]


@dataclass(frozen=True, eq=False)
class Eq4SdKernel:
    """Eq. (4) total transistor cost over an ``s_d`` grid."""

    model: TotalCostModel
    n_transistors: float
    feature_um: float
    n_wafers: float
    yield_fraction: float
    cost_per_cm2: float

    #: Output rows per grid point (a plain cost curve).
    n_outputs = 1

    @cached_property
    def _curve(self):
        """Eq. (4) bound to this operating point (built once per kernel)."""
        return self.model.sd_curve(self.n_transistors, self.feature_um,
                                   self.n_wafers, self.yield_fraction,
                                   self.cost_per_cm2)

    def prepare(self) -> None:
        """Build the curve, so threads that share the kernel only read it.

        An invalid fixed argument leaves it unbuilt; ``batch`` raises.
        """
        try:
            self._curve
        except ReproError:
            pass

    def batch(self, xs: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """Vectorized eq. (4) over the grid, written into ``out`` if given.

        ``scratch``, a float buffer of ``xs``'s shape, is the in-place
        evaluation's working memory (see ``TotalCostModel.sd_curve``).
        The in-place contract holds: the fused block proves
        ``0 < s_d − s_d0 < inf`` and float-range headroom before it
        writes, and its fallback, ``curve(xs)``, raises on any
        non-finite value.
        """
        try:
            curve = self._curve
        except ReproError:
            # An invalid fixed argument: raise what the unbound call
            # raises, which reports an invalid s_d first.
            self.model.transistor_cost(
                xs, self.n_transistors, self.feature_um, self.n_wafers,
                self.yield_fraction, self.cost_per_cm2)
            raise
        if out is None:
            out = np.empty(np.shape(xs))
        return curve(xs, out=out, scratch=scratch)

    def point(self, x: float) -> float:
        """Scalar eq. (4) — the legacy per-point path."""
        return float(self.model.transistor_cost(
            x, self.n_transistors, self.feature_um, self.n_wafers,
            self.yield_fraction, self.cost_per_cm2))

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Points strictly above the eq.-(6) divergence at ``s_d0``."""
        return np.isfinite(xs) & (xs > self.model.design_model.sd0)


@dataclass(frozen=True, eq=False)
class Eq7SdKernel:
    """Eq. (7) generalized transistor cost over an ``s_d`` grid."""

    model: GeneralizedCostModel
    n_transistors: float
    feature_um: float
    n_wafers: float
    maturity: float = 1.0

    n_outputs = 1

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized eq. (7) over the grid."""
        return np.asarray(self.model.transistor_cost(
            xs, self.n_transistors, self.feature_um, self.n_wafers,
            self.maturity), dtype=float)

    def point(self, x: float) -> float:
        """Scalar eq. (7) — the legacy per-point path."""
        return float(self.model.transistor_cost(
            x, self.n_transistors, self.feature_um, self.n_wafers,
            self.maturity))

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Points strictly above the eq.-(6) divergence at ``s_d0``."""
        return np.isfinite(xs) & (xs > self.model.design_model.sd0)


@dataclass(frozen=True, eq=False)
class Eq4VolumeKernel:
    """Eq. (4) total transistor cost over a wafer-volume grid.

    Only ``Cd_sq = (C_DE + C_MA)/(N_w·A_w)`` depends on the volume, so
    :meth:`batch` sets up the rest of eq. (4) once per kernel at the
    scalar ``s_d`` (``TotalCostModel._point``, with the eq.-(6) power
    from ``margin_power``) and runs only the volume-dependent operations
    of :meth:`repro.engine.pykernels.Eq4Point.sums` on the grid, in its
    order, so its values are bit-identical to the model call's. The
    model call itself takes over when the model has no
    ``scalar_params`` (a component that is not its stock type) or a
    fixed argument is not a plain number or fails a check, and for any
    grid with a non-finite or non-positive volume or a non-finite cost;
    it raises its own errors.
    """

    model: TotalCostModel
    sd: float
    n_transistors: float
    feature_um: float
    yield_fraction: float
    cost_per_cm2: float

    n_outputs = 1

    @cached_property
    def _fixed(self):
        """``(silicon, C_DE + C_MA, Cm_sq, Ct_sq, A_w)`` at this ``s_d``,
        or ``None`` where :meth:`batch` takes the model call."""
        args = (self.sd, self.n_transistors, self.feature_um,
                self.yield_fraction, self.cost_per_cm2)
        # Stock component models only: a subclass may override a method
        # that the model call would run.
        if (self.model.scalar_params is None
                or not all(type(a) is float or type(a) is int for a in args)):
            return None
        try:
            sd = pyk.positive(self.sd, "sd")
            # Any valid volume will do: batch supplies N_w·A_w itself.
            point = self.model._point(self.n_transistors, self.feature_um,
                                      1.0, self.yield_fraction,
                                      self.cost_per_cm2)
            power = margin_power(point.margin(sd), point.p2)
            if point.amplitude is None or not 0.0 < power < math.inf:
                return None
            silicon, c_de, ct_sq, _ = point.sums(sd, power)
        except (ReproError, ZeroDivisionError):
            return None
        return (silicon, c_de + point.c_ma, point.cm_sq, ct_sq,
                self.model.wafer.area_cm2)

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized eq. (4) over the volume grid."""
        fixed = self._fixed
        if (fixed is not None and type(xs) is np.ndarray
                and xs.dtype == np.float64):
            silicon, c_sum, cm_sq, ct_sq, wafer_area = fixed
            lo = float(xs.min(initial=np.inf))
            # check_positive's finite and > 0 tests hold exactly when
            # 0 < N_w < inf (a NaN fails both comparisons). Each
            # operation is monotone in N_w, so the cost at the smallest
            # volume, in the same float operations, bounds the grid's.
            try:
                ok = (0.0 < lo and xs.max(initial=-np.inf) < np.inf
                      and silicon * (cm_sq + c_sum / (lo * wafer_area)
                                     + ct_sq) < math.inf)
            except ZeroDivisionError:  # ``N_w·A_w`` underflowed to 0
                ok = False
            if ok:
                # ``N_w·A_w`` as eq4_point forms it, then sums' order.
                return silicon * (cm_sq + c_sum / (xs * wafer_area) + ct_sq)
        return np.asarray(self.model.transistor_cost(
            self.sd, self.n_transistors, self.feature_um, xs,
            self.yield_fraction, self.cost_per_cm2), dtype=float)

    def point(self, x: float) -> float:
        """Scalar eq. (4) — the legacy per-point path."""
        return float(self.model.transistor_cost(
            self.sd, self.n_transistors, self.feature_um, x,
            self.yield_fraction, self.cost_per_cm2))

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Volumes must be strictly positive (eq.-5 amortisation)."""
        return np.isfinite(xs) & (xs > 0)


@dataclass(frozen=True, eq=False)
class DesignObjectivesKernel:
    """Pareto objective vectors (area, total cost, design cost) over ``s_d``.

    Three output rows per grid point, in the order
    :class:`repro.optimize.pareto.DesignPoint` stores them.

    :meth:`batch` fills the three rows of one output array in one pass
    over the grid. The cost row comes from the operating point's eq.-(4)
    curve, built once per kernel and written in place as
    :class:`Eq4SdKernel` writes it. The area and ``C_DE`` rows reuse
    ``N_tr``, ``λ²`` and ``A0·N_tr^p1`` from the curve's set-up
    (``curve.point``). Each row runs
    the same operations as the model call :meth:`point` makes for it
    (``area_from_sd``, ``TotalCostModel.transistor_cost``,
    ``DesignCostModel.cost``), so the rows are bit-identical to those
    calls over the grid. The three calls themselves take over when a
    fixed argument is not a plain number or the curve cannot be built,
    and when the fused pass raises; they raise their own errors.
    """

    model: TotalCostModel
    n_transistors: float
    feature_um: float
    n_wafers: float
    yield_fraction: float
    cost_per_cm2: float

    n_outputs = 3

    @cached_property
    def _fused(self):
        """The operating point's eq.-(4) curve, or ``None`` where
        :meth:`batch` takes the three model calls."""
        args = (self.n_transistors, self.feature_um, self.n_wafers,
                self.yield_fraction, self.cost_per_cm2)
        if not all(type(a) is float or type(a) is int for a in args):
            return None
        try:
            curve = self.model.sd_curve(*args)
        except (ReproError, OverflowError):
            return None
        # The curve raises for an overflowing ``N_tr^p1`` first.
        return curve if curve.point.amplitude is not None else None

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Objective triple over the grid, shape ``(3, n)``."""
        curve = self._fused
        if (curve is not None and type(xs) is np.ndarray
                and xs.dtype == np.float64 and xs.ndim == 1):
            point = curve.point
            rows = np.empty((3, xs.size))
            area, cost, design = rows
            try:
                # The design row is the in-place curve's scratch.
                curve(xs, out=cost, scratch=design)
            except ReproError:
                pass  # the model calls below raise their own error
            else:
                np.subtract(xs, point.sd0, out=design)
                np.power(design, point.p2, out=design)
                np.divide(point.amplitude, design, out=design)
                np.multiply(point.n_transistors, xs, out=area)
                np.multiply(area, point.lambda_sq, out=area)
                return rows
        area = area_from_sd(xs, self.n_transistors, self.feature_um)
        cost = self.model.transistor_cost(
            xs, self.n_transistors, self.feature_um, self.n_wafers,
            self.yield_fraction, self.cost_per_cm2)
        design = self.model.design_model.cost(self.n_transistors, xs)
        return np.stack([np.asarray(area, dtype=float),
                         np.asarray(cost, dtype=float),
                         np.asarray(design, dtype=float)])

    def point(self, x: float) -> tuple[float, float, float]:
        """Scalar objective triple — legacy evaluation order preserved."""
        area = float(area_from_sd(x, self.n_transistors, self.feature_um))
        cost = float(self.model.transistor_cost(
            x, self.n_transistors, self.feature_um, self.n_wafers,
            self.yield_fraction, self.cost_per_cm2))
        design = float(self.model.design_model.cost(self.n_transistors, x))
        return (area, cost, design)

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Points strictly above the eq.-(6) divergence at ``s_d0``."""
        return np.isfinite(xs) & (xs > self.model.design_model.sd0)
