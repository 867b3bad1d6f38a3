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

:meth:`token` returns the kernel's content identity (model repr plus
fixed operating point) for the content-addressed cache. Kernels are
frozen dataclasses of frozen models.

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
    "OperatingPointsKernel",
]

#: Stock yield statistics the pure-python backend can replicate.
#: A tuple of pairs (not a dict): kernels read this binding, and an
#: immutable binding is part of the code version, so it needs no
#: token() coverage (lint rule PURE002).
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



def _part(value):
    """A cache-token part: numeric values hash as floats, anything else
    by repr (so a not-yet-validated garbage argument still builds a key
    and fails later in the model's own validation)."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return repr(value)

def _test_triple(test_model):
    """The §2.5 test-model parameters as a pykernels triple (or None)."""
    if test_model is None:
        return None
    return (test_model.seconds_per_mtransistor,
            test_model.tester_rate_usd_per_hour,
            test_model.handling_usd_per_die)


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
        design = self.model.design_model
        return {
            "wafer_area_cm2": self.model.wafer.area_cm2,
            "a0": design.a0, "p1": design.p1, "p2": design.p2,
            "sd0": design.sd0,
            "mask_cost_usd": float(self.model.mask_cost(self.feature_um)),
            "utilization": self.model.utilization,
            "test": _test_triple(self.model.test_model),
        }

    def point_py(self, x: float) -> float:
        """Scalar eq. (4) through the pure-python kernels."""
        return _translated(
            pyk.total_transistor_cost, x, self.n_transistors, self.feature_um,
            self.n_wafers, self.yield_fraction, self.cost_per_cm2,
            **self._py_params)

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Points strictly above the eq.-(6) divergence at ``s_d0``."""
        return np.isfinite(xs) & (xs > self.model.design_model.sd0)

    def token(self) -> tuple:
        """Cache identity: model configuration + fixed operating point."""
        return ("Eq4SdKernel", repr(self.model), _part(self.n_transistors),
                _part(self.feature_um), _part(self.n_wafers),
                _part(self.yield_fraction), _part(self.cost_per_cm2))


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

    def token(self) -> tuple:
        """Cache identity: model configuration + fixed operating point."""
        return ("Eq7SdKernel", repr(self.model), _part(self.n_transistors),
                _part(self.feature_um), _part(self.n_wafers),
                _part(self.maturity))


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
        design = self.model.design_model
        return {
            "wafer_area_cm2": self.model.wafer.area_cm2,
            "a0": design.a0, "p1": design.p1, "p2": design.p2,
            "sd0": design.sd0,
            "mask_cost_usd": float(self.model.mask_cost(self.feature_um)),
            "utilization": self.model.utilization,
            "test": _test_triple(self.model.test_model),
        }

    def point_py(self, x: float) -> float:
        """Scalar eq. (4) through the pure-python kernels."""
        return _translated(
            pyk.total_transistor_cost, self.sd, self.n_transistors,
            self.feature_um, x, self.yield_fraction, self.cost_per_cm2,
            **self._py_params)

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Volumes must be strictly positive (eq.-5 amortisation)."""
        return np.isfinite(xs) & (xs > 0)

    def token(self) -> tuple:
        """Cache identity: model configuration + fixed operating point."""
        return ("Eq4VolumeKernel", repr(self.model), _part(self.sd),
                _part(self.n_transistors), _part(self.feature_um),
                _part(self.yield_fraction), _part(self.cost_per_cm2))


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
        design = self.model.design_model
        return {
            "wafer_area_cm2": self.model.wafer.area_cm2,
            "a0": design.a0, "p1": design.p1, "p2": design.p2,
            "sd0": design.sd0,
            "mask_cost_usd": float(self.model.mask_cost(self.feature_um)),
            "utilization": self.model.utilization,
            "test": _test_triple(self.model.test_model),
        }

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

    def token(self) -> tuple:
        """Cache identity: model configuration + fixed operating point."""
        return ("DesignObjectivesKernel", repr(self.model),
                _part(self.n_transistors), _part(self.feature_um),
                _part(self.n_wafers), _part(self.yield_fraction),
                _part(self.cost_per_cm2))


@dataclass(frozen=True, eq=False)
class OperatingPointsKernel:
    """Eq. (4) over heterogeneous operating points (the Scenario batch).

    Every parameter is an equal-length array; the evaluation grid is
    the index vector ``0..n-1``. One vectorized model call covers all
    points that share this kernel's model.
    """

    model: TotalCostModel
    sd: np.ndarray
    n_transistors: np.ndarray
    feature_um: np.ndarray
    n_wafers: np.ndarray
    yield_fraction: np.ndarray
    cost_per_cm2: np.ndarray

    n_outputs = 1

    def _pick(self, indices) -> tuple:
        i = np.asarray(indices, dtype=int)
        return (self.sd[i], self.n_transistors[i], self.feature_um[i],
                self.n_wafers[i], self.yield_fraction[i], self.cost_per_cm2[i])

    def batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized eq. (4) over the selected scenario indices."""
        sd, n_tr, feature, n_w, y, c = self._pick(xs)
        return np.asarray(self.model.transistor_cost(
            sd, n_tr, feature, n_w, y, c), dtype=float)

    def point(self, x: float) -> float:
        """Scalar eq. (4) at one scenario index."""
        i = int(x)
        return float(self.model.transistor_cost(
            float(self.sd[i]), float(self.n_transistors[i]),
            float(self.feature_um[i]), float(self.n_wafers[i]),
            float(self.yield_fraction[i]), float(self.cost_per_cm2[i])))

    def point_py(self, x: float) -> float:
        """Scalar eq. (4) at one index through the pure-python kernels."""
        i = int(x)
        model = self.model
        design = model.design_model
        feature = float(self.feature_um[i])
        mask_cost = 0.0
        if model.include_masks:
            mask = model.mask_model
            mask_cost = _translated(
                pyk.mask_set_cost, feature,
                anchor_cost_usd=mask.anchor_cost_usd,
                anchor_feature_um=mask.anchor_feature_um,
                exponent=mask.exponent,
                reference_layers=mask.reference_layers)
        return _translated(
            pyk.total_transistor_cost, float(self.sd[i]),
            float(self.n_transistors[i]), feature, float(self.n_wafers[i]),
            float(self.yield_fraction[i]), float(self.cost_per_cm2[i]),
            wafer_area_cm2=model.wafer.area_cm2,
            a0=design.a0, p1=design.p1, p2=design.p2, sd0=design.sd0,
            mask_cost_usd=mask_cost, utilization=model.utilization,
            test=_test_triple(model.test_model))

    def feasible(self, xs: np.ndarray) -> np.ndarray:
        """Scenarios whose every parameter sits in the model domain."""
        i = np.asarray(xs, dtype=int)
        sd, n_tr, feature, n_w, y, c = (self.sd[i], self.n_transistors[i],
                                        self.feature_um[i], self.n_wafers[i],
                                        self.yield_fraction[i],
                                        self.cost_per_cm2[i])
        ok = np.isfinite(sd) & (sd > self.model.design_model.sd0)
        for positive in (n_tr, feature, n_w, c):
            ok &= np.isfinite(positive) & (positive > 0)
        ok &= np.isfinite(y) & (y > 0) & (y <= 1)
        return ok

    def token(self) -> tuple:
        """Cache identity: model configuration + all parameter arrays."""
        return ("OperatingPointsKernel", repr(self.model), self.sd,
                self.n_transistors, self.feature_um, self.n_wafers,
                self.yield_fraction, self.cost_per_cm2)
