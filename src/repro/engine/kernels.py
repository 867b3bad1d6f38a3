"""Batched kernels — adapters from the model dataclasses to grid arrays.

A *kernel* freezes one model plus its fixed operating point and knows
how to evaluate a 1-D grid of the swept parameter four ways:

* :meth:`batch` — one vectorized NumPy call over the whole grid (the
  models are already array-friendly; the kernel just pins the fixed
  arguments);
* :meth:`point` — one scalar model call, byte-identical to the legacy
  per-point loops (used for diagnostics parity under MASK/COLLECT and
  as the numpy-backend fallback);
* :meth:`point_py` — the same point through the pure-python kernels of
  :mod:`repro.engine.pykernels` (the ``python`` backend);
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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..cost.generalized import GeneralizedCostModel
from ..cost.total import TotalCostModel
from ..density.metrics import area_from_sd
from ..errors import DomainError, ReproError
from ..yieldmodels.composite import CompositeYield
from ..yieldmodels.critical_area import CriticalAreaModel
from ..yieldmodels.defects import DefectDensityModel
from ..yieldmodels.learning import YieldLearningCurve
from ..yieldmodels.models import (
    MurphyYield,
    NegativeBinomialYield,
    PoissonYield,
    SeedsYield,
)
from . import pykernels as pyk

__all__ = [
    "Eq4SdKernel",
    "Eq7SdKernel",
    "Eq4VolumeKernel",
    "DesignObjectivesKernel",
]

#: Stock yield statistics the pure-python backend can replicate.
#: A tuple of pairs (not a dict): kernels read this binding while block
#: threads share them, so it must be immutable (lint rule PURE002).
_PY_STATISTICS = (
    (PoissonYield, "poisson"),
    (MurphyYield, "murphy"),
    (SeedsYield, "seeds"),
    (NegativeBinomialYield, "negbinomial"),
)


def _py_statistic(statistic) -> str | None:
    """The pure-python backend's name for a stock yield statistic.

    ``None`` for subclasses and custom statistics: a subclass may
    override behaviour, so only exact stock types are replicated.
    """
    for stock, name in _PY_STATISTICS:
        if type(statistic) is stock:
            return name
    return None


def _translated(fn, *args, **kwargs):
    """Run a pure-python kernel, surfacing failures as ``DomainError``.

    Keeps diagnostics backend-independent: both backends report
    ``DomainError`` with the same message for the same infeasible point.
    """
    try:
        return fn(*args, **kwargs)
    except pyk.KernelError as exc:
        raise DomainError(str(exc)) from exc


def _test_triple(test_model):
    """The §2.5 test-model parameters as a pykernels triple (or None)."""
    if test_model is None:
        return None
    return (test_model.seconds_per_mtransistor,
            test_model.tester_rate_usd_per_hour,
            test_model.handling_usd_per_die)


def _eq4_py_params(model: TotalCostModel, feature_um: float) -> dict:
    """The model-side keyword arguments of ``pyk.total_transistor_cost``."""
    design = model.design_model
    return {
        "wafer_area_cm2": model.wafer.area_cm2,
        "a0": design.a0, "p1": design.p1, "p2": design.p2,
        "sd0": design.sd0,
        "mask_cost_usd": float(model.mask_cost(feature_um)),
        "utilization": model.utilization,
        "test": _test_triple(model.test_model),
    }


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

    @cached_property
    def _py_params(self) -> dict:
        return _eq4_py_params(self.model, self.feature_um)

    def point_py(self, x: float) -> float:
        """Scalar eq. (4) through the pure-python kernels."""
        return _translated(
            pyk.total_transistor_cost, x, self.n_transistors, self.feature_um,
            self.n_wafers, self.yield_fraction, self.cost_per_cm2,
            **self._py_params)

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

    @cached_property
    def _py_params(self) -> dict | None:
        model = self.model
        yield_model = model.yield_model
        statistic = _py_statistic(yield_model.statistic)
        stock = (statistic is not None
                 and type(yield_model) is CompositeYield
                 and type(yield_model.defects) is DefectDensityModel
                 and type(yield_model.critical_area) is CriticalAreaModel
                 and type(yield_model.learning) is YieldLearningCurve)
        if not stock:
            return None
        wafer_cost = model.wafer_cost
        defects = yield_model.defects
        critical = yield_model.critical_area
        learning = yield_model.learning
        design = model.design_model
        mask_cost = float(model.mask_model.cost(self.feature_um)) \
            if model.include_masks else 0.0
        return {
            "wafer_area_cm2": model.wafer.area_cm2,
            "wafer_cost_params": {
                "base_cost_per_cm2": wafer_cost.base_cost_per_cm2,
                "reference_feature_um": wafer_cost.reference_feature_um,
                "feature_exponent": wafer_cost.feature_exponent,
                "reference_area_cm2": wafer_cost.reference_wafer.area_cm2,
                "wafer_area_exponent": wafer_cost.wafer_area_exponent,
                "volume_overhead": wafer_cost.volume_overhead,
                "volume_scale": wafer_cost.volume_scale,
                "maturity_overhead": wafer_cost.maturity_overhead,
            },
            "yield_params": {
                "statistic": statistic,
                "alpha": getattr(yield_model.statistic, "alpha", 1.0),
                "reference_density_per_cm2": defects.reference_density_per_cm2,
                "reference_feature_um": defects.reference_feature_um,
                "feature_exponent": defects.feature_exponent,
                "reference_sd": critical.reference_sd,
                "saturation": critical.saturation,
                "density_exponent": critical.density_exponent,
                "initial_multiplier": learning.initial_multiplier,
                "learning_wafers": learning.learning_wafers,
                "systematic_yield": yield_model.systematic_yield,
            },
            "a0": design.a0, "p1": design.p1, "p2": design.p2,
            "sd0": design.sd0,
            "mask_cost_usd": mask_cost,
            "utilization": model.utilization,
            "test": _test_triple(model.test_model),
        }

    def point_py(self, x: float) -> float:
        """Scalar eq. (7) through the pure-python kernels.

        Custom component models (a non-stock yield statistic, a
        subclassed defect model, ...) have no pure-python twin; those
        fall back to the scalar model call.
        """
        params = self._py_params
        if params is None:
            return self.point(x)
        return _translated(
            pyk.generalized_transistor_cost, x, self.n_transistors,
            self.feature_um, self.n_wafers, self.maturity, **params)

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Points strictly above the eq.-(6) divergence at ``s_d0``."""
        return np.isfinite(xs) & (xs > self.model.design_model.sd0)


@dataclass(frozen=True, eq=False)
class Eq4VolumeKernel:
    """Eq. (4) total transistor cost over a wafer-volume grid."""

    model: TotalCostModel
    sd: float
    n_transistors: float
    feature_um: float
    yield_fraction: float
    cost_per_cm2: float

    n_outputs = 1

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized eq. (4) over the volume grid."""
        return np.asarray(self.model.transistor_cost(
            self.sd, self.n_transistors, self.feature_um, xs,
            self.yield_fraction, self.cost_per_cm2), dtype=float)

    def point(self, x: float) -> float:
        """Scalar eq. (4) — the legacy per-point path."""
        return float(self.model.transistor_cost(
            self.sd, self.n_transistors, self.feature_um, x,
            self.yield_fraction, self.cost_per_cm2))

    @cached_property
    def _py_params(self) -> dict:
        return _eq4_py_params(self.model, self.feature_um)

    def point_py(self, x: float) -> float:
        """Scalar eq. (4) through the pure-python kernels."""
        return _translated(
            pyk.total_transistor_cost, self.sd, self.n_transistors,
            self.feature_um, x, self.yield_fraction, self.cost_per_cm2,
            **self._py_params)

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Volumes must be strictly positive (eq.-5 amortisation)."""
        return np.isfinite(xs) & (xs > 0)


@dataclass(frozen=True, eq=False)
class DesignObjectivesKernel:
    """Pareto objective vectors (area, total cost, design cost) over ``s_d``.

    Three output rows per grid point, in the order
    :class:`repro.optimize.pareto.DesignPoint` stores them.
    """

    model: TotalCostModel
    n_transistors: float
    feature_um: float
    n_wafers: float
    yield_fraction: float
    cost_per_cm2: float

    n_outputs = 3

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized objective triple over the grid, shape ``(3, n)``."""
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

    @cached_property
    def _py_params(self) -> dict:
        return _eq4_py_params(self.model, self.feature_um)

    def point_py(self, x: float) -> tuple[float, float, float]:
        """Scalar objective triple through the pure-python kernels."""
        params = self._py_params
        area = _translated(pyk.area_from_sd, x, self.n_transistors,
                           self.feature_um)
        cost = _translated(
            pyk.total_transistor_cost, x, self.n_transistors, self.feature_um,
            self.n_wafers, self.yield_fraction, self.cost_per_cm2, **params)
        design = _translated(pyk.design_cost, self.n_transistors, x,
                             a0=params["a0"], p1=params["p1"],
                             p2=params["p2"], sd0=params["sd0"])
        return (area, cost, design)

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Points strictly above the eq.-(6) divergence at ``s_d0``."""
        return np.isfinite(xs) & (xs > self.model.design_model.sd0)
