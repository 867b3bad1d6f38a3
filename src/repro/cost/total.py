"""Total transistor cost — eqs. (4) and (5) of the paper.

Eq. (4) extends the manufacturing-only eq. (3) with the development
costs amortised over the fabricated silicon:

    ``C_tr = (λ² s_d / Y) · (Cm_sq + Cd_sq)``
    ``Cd_sq = (C_MA + C_DE) / (N_w · A_w)``            (eq. 5)

For high-volume products (``N_w`` large) ``Cd_sq → 0`` and eq. (4)
degenerates to eq. (3), exactly as the paper notes.

:class:`TotalCostModel` wires eq. (6) (design cost) and the mask model
into this structure and optionally folds in the §2.5 extensions (test
cost and hardware utilization ``u``, the latter by the paper's own
``Y → u·Y`` substitution). :meth:`TotalCostModel.breakdown` exposes the
per-component split the Figure 4 discussion reasons about.
:meth:`TotalCostModel.sd_curve` binds eq. (4) to one operating point,
so a solver over ``s_d`` validates the fixed arguments only once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..engine import pykernels as _pyk
from ..engine.points import Eq4Params
from ..errors import DomainError
from ..obs.instrument import traced
from ..units import um_to_cm
from ..validation import check_fraction, check_positive
from ..wafer.specs import WAFER_200MM, WaferSpec
from .design import DesignCostModel
from .masks import MaskSetCostModel
from .test import TestCostModel

__all__ = ["CostBreakdown", "TotalCostModel", "PAPER_FIGURE4_MODEL"]

#: Bound on every value the in-place eq.-(4) ufuncs may make: 2**24 below
#: the float maximum, so the last-bit differences between ``math`` and
#: NumPy's ``pow`` cannot carry a value checked below it out of range.
_HEADROOM = 2.0 ** 1000


def _lambda_sq(feature_cm, feature_um):
    """``λ²`` in cm², or a ``DomainError`` (never a warning) if it leaves
    the float range: overflows, or underflows to 0.

    The messages match ``engine.pykernels``', so every path fails alike
    on an absurd ``feature_um``.
    """
    if isinstance(feature_cm, float):
        lambda_sq = feature_cm * feature_cm
        if 0.0 < lambda_sq < math.inf:
            return lambda_sq
    else:
        with np.errstate(over="ignore", under="ignore"):
            lambda_sq = np.square(feature_cm)
        bad = ~((0.0 < lambda_sq) & (lambda_sq < math.inf))
        if not bad.any():
            return lambda_sq
        feature_um = np.broadcast_to(feature_um, bad.shape)[bad].flat[0]
        lambda_sq = lambda_sq[bad].flat[0]
    raise DomainError(_pyk.lambda_sq_message(lambda_sq, feature_um))


@dataclass(frozen=True)
class CostBreakdown:
    """Per-transistor cost split at one operating point (all $/transistor)."""

    manufacturing: float
    design: float
    masks: float
    test: float

    @property
    def total(self) -> float:
        """Sum of all components."""
        return self.manufacturing + self.design + self.masks + self.test

    @property
    def development_share(self) -> float:
        """Fraction of the total that is development (design + masks)."""
        return (self.design + self.masks) / self.total


@dataclass(frozen=True)
class TotalCostModel:
    """Eq. (4)/(5) with pluggable component models.

    Attributes
    ----------
    design_model:
        Eq.-(6) design cost model (paper constants by default).
    mask_model:
        Mask-set cost model for ``C_MA``; set ``include_masks=False``
        to reproduce the bare eq. (4) with ``C_MA = 0`` (the paper's
        Figure 4 presentation does not separate it).
    wafer:
        Wafer format supplying ``A_w`` for eq. (5).
    include_masks:
        Whether ``C_MA`` enters ``Cd_sq``.
    test_model:
        Optional §2.5 test-cost extension; ``None`` omits it (the
        paper's lower-bound configuration).
    utilization:
        Hardware utilization ``u`` in (0, 1]; enters as ``Y → u·Y``
        per §2.5. Default 1.0 (every fabricated transistor is used).
    """

    design_model: DesignCostModel = field(default_factory=DesignCostModel)
    mask_model: MaskSetCostModel = field(default_factory=MaskSetCostModel)
    wafer: WaferSpec = WAFER_200MM
    include_masks: bool = True
    test_model: TestCostModel | None = None
    utilization: float = 1.0

    def __post_init__(self) -> None:
        check_fraction(self.utilization, "utilization")

    @cached_property
    def scalar_params(self) -> Eq4Params | None:
        """This model's eq.-(4) inputs as plain numbers (built once), or
        ``None`` when the model or a component is not its exact stock type.

        What :func:`repro.engine.points.price_points` prices a single
        operating point with: the component models' parameters, read
        field by field, not their methods. A subclass may override a
        method, so only exact stock types qualify.
        """
        design = self.design_model
        mask = self.mask_model
        test = self.test_model
        if not (type(self) is TotalCostModel
                and type(design) is DesignCostModel
                and (not self.include_masks or type(mask) is MaskSetCostModel)
                and (test is None or type(test) is TestCostModel)
                and type(self.wafer) is WaferSpec):
            return None
        return Eq4Params(
            wafer_area_cm2=self.wafer.area_cm2, a0=design.a0, p1=design.p1,
            p2=design.p2, sd0=design.sd0,
            masks=((mask.anchor_cost_usd, mask.anchor_feature_um,
                    mask.exponent, mask.reference_layers)
                   if self.include_masks else None),
            utilization=self.utilization,
            test=(None if test is None else
                  (test.seconds_per_mtransistor, test.tester_rate_usd_per_hour,
                   test.handling_usd_per_die)))

    # -- eq. (5) ---------------------------------------------------------
    def mask_cost(self, feature_um) -> float:
        """``C_MA`` for the node ($); zero when masks are excluded."""
        if not self.include_masks:
            return 0.0
        return self.mask_model.cost(feature_um)

    @traced(equation="5")
    def design_cost_per_cm2(self, n_transistors, sd, feature_um, n_wafers):
        """Eq. (5): ``Cd_sq = (C_MA + C_DE)/(N_w A_w)`` in $/cm²."""
        n_wafers = check_positive(n_wafers, "n_wafers")
        c_de = self.design_model.cost(n_transistors, sd)
        c_ma = self.mask_cost(feature_um)
        result = (np.asarray(c_de) + c_ma) / (np.asarray(n_wafers, dtype=float) * self.wafer.area_cm2)
        args = (n_transistors, sd, n_wafers)
        return result if any(np.ndim(a) for a in args) else float(result)

    # -- eq. (4) -----------------------------------------------------------
    @traced(equation="4")
    def transistor_cost(self, sd, n_transistors, feature_um, n_wafers,
                        yield_fraction, cost_per_cm2):
        """Eq. (4): total cost per functional (and used) transistor ($).

        Parameters
        ----------
        sd:
            Design decompression index (> ``design_model.sd0``).
        n_transistors:
            Transistors per die ``N_tr``.
        feature_um:
            Minimum feature size λ (µm).
        n_wafers:
            Wafer run size ``N_w``.
        yield_fraction:
            Manufacturing yield ``Y``.
        cost_per_cm2:
            Manufacturing cost per cm² ``Cm_sq`` ($/cm²).
        """
        sd = check_positive(sd, "sd")
        return self.sd_curve(n_transistors, feature_um, n_wafers,
                             yield_fraction, cost_per_cm2)(sd)

    @traced(equation="4")
    def sd_curve(self, n_transistors, feature_um, n_wafers, yield_fraction,
                 cost_per_cm2):
        """Eq. (4) at a fixed operating point, as a function of ``s_d`` alone.

        Validates the fixed arguments once, precomputes the factors that
        do not depend on ``s_d`` (``A0·N_tr^p1``, ``C_MA``, ``N_w·A_w``,
        ``λ²``, ``u·Y``) and returns ``curve(sd)``, which evaluates
        eqs. (4)–(6) for a scalar or array ``sd``. :meth:`transistor_cost`
        is ``sd_curve(...)(sd)``; a solver that evaluates eq. (4) many
        times at one operating point builds the curve once instead.

        The checks return every scalar fixed argument as a float, so the
        factors are plain float arithmetic and the curve is the same for
        a float, an int, a NumPy scalar or a 0-d array. A cost that
        leaves the float range raises :class:`DomainError` with the
        message ``repro.engine.pykernels`` gives for the same point (an
        eq.-(6) power out of range, else a non-finite eq.-(4) cost),
        never a warning.

        ``curve(sd, out=buf, scratch=tmp)`` writes an array ``sd``'s
        costs into ``buf`` and returns it, using ``tmp`` (same shape,
        float) as its only working memory. With scalar fixed arguments,
        no test model and a valid ``C_MA`` it runs the same ufuncs in
        place, so the values are bit-identical to ``curve(sd)``; it
        falls back to ``curve(sd)`` otherwise, on any invalid ``sd`` and
        when the grid's ``s_d`` range could leave the float range, so
        the errors are too.
        """
        # The historical check order: the first failing argument names the error.
        feature_um = check_positive(feature_um, "feature_um")
        yield_fraction = check_fraction(yield_fraction, "yield_fraction")
        cm_sq = check_positive(cost_per_cm2, "cost_per_cm2")
        n_wafers = check_positive(n_wafers, "n_wafers")
        n_transistors = check_positive(n_transistors, "n_transistors")
        fixed_ndim = not (type(feature_um) is type(yield_fraction) is type(cm_sq)
                          is type(n_wafers) is type(n_transistors) is float)
        design = self.design_model
        sd0 = design.sd0
        p2 = design.p2
        effective_yield = yield_fraction * self.utilization
        wafer_cm2 = n_wafers * self.wafer.area_cm2
        try:
            amplitude = design.a0 * n_transistors ** design.p1
            power_overflow = False
        except OverflowError:  # N_tr^p1 leaves the float range
            amplitude = math.inf
            power_overflow = True
        lambda_sq = _lambda_sq(um_to_cm(feature_um), feature_um)
        try:
            c_ma = self.mask_cost(feature_um)
        except DomainError as exc:
            # Raised per call, after the margin check, as eq. (5) orders it.
            c_ma = exc
        test_model = self.test_model
        fused = (test_model is None and not fixed_ndim
                 and not isinstance(c_ma, DomainError))

        def range_error(sd, power, index, shape):
            """The DomainError for the point at flat ``index``."""
            def at(value):
                return float(np.broadcast_to(value, shape).flat[index])
            if power_overflow or not 0.0 < at(power) < math.inf:
                return DomainError(
                    f"eq. (6) design cost is out of float range for "
                    f"n_transistors={at(n_transistors)!r}, sd={at(sd)!r}")
            return DomainError(
                f"eq. (4) transistor cost is not finite for sd={at(sd)!r}, "
                f"feature_um={at(feature_um)!r}, "
                f"n_wafers={at(n_wafers)!r}, "
                f"yield_fraction={at(yield_fraction)!r}")

        def in_range(m_lo, m_hi):
            """Whether every value the in-place ufuncs make for margins in
            ``[m_lo, m_hi]`` stays far inside the float range: each bound
            is one float operation on the extreme margins."""
            try:
                c_hi = m_hi ** p2
                c_de_hi = amplitude / m_lo ** p2
                silicon_hi = lambda_sq * (sd0 + m_hi) / effective_yield
            except (OverflowError, ZeroDivisionError):
                return False
            cd_hi = (c_de_hi + c_ma) / wafer_cm2
            return (c_hi < _HEADROOM and c_de_hi + c_ma < _HEADROOM
                    and silicon_hi < _HEADROOM and cm_sq + cd_hi < _HEADROOM
                    and silicon_hi * (cm_sq + cd_hi) < _HEADROOM)

        def into(sd, out, scratch):
            if fused and type(sd) is np.ndarray and sd.dtype == np.float64:
                m = np.subtract(sd, sd0, out=np.empty_like(sd) if scratch is None else scratch)
                # check_positive's finite and > 0 tests and margin's
                # > s_d0 test in one pass: all hold exactly when
                # 0 < m < inf (a NaN fails both comparisons); the same
                # extremes bound every intermediate value.
                m_lo = np.min(m, initial=np.inf)
                m_hi = np.max(m, initial=-np.inf)
                if 0.0 < m_lo and m_hi < np.inf and (
                        not m.size or in_range(float(m_lo), float(m_hi))):
                    # curve(sd)'s ufuncs in its order, one buffer each side.
                    c = np.power(m, p2, out=m)
                    np.divide(amplitude, c, out=c)
                    np.add(c, c_ma, out=c)
                    np.divide(c, wafer_cm2, out=c)
                    np.add(cm_sq, c, out=c)
                    np.add(c, 0.0, out=c)  # ``+ ct_sq``: -0.0 becomes 0.0
                    np.multiply(lambda_sq, sd, out=out)
                    np.divide(out, effective_yield, out=out)
                    return np.multiply(out, c, out=out)
            # Anything else, and every failed check, takes the general
            # path, which raises the same DomainError as before.
            out[...] = curve(sd)
            return out

        def cost(sd, power):
            """Eqs. (4)–(6) from ``s_d`` and ``(s_d − s_d0)^p2``."""
            cd_sq = (amplitude / power + c_ma) / wafer_cm2
            ct_sq = 0.0
            if test_model is not None:
                ct_sq = test_model.cost_per_cm2(sd, feature_um, n_transistors)
            return lambda_sq * sd / effective_yield * (cm_sq + cd_sq + ct_sq)

        def curve(sd, out=None, scratch=None):
            if out is not None:
                return into(sd, out, scratch)
            m = design.margin(sd)  # a float exactly when ``sd`` is a scalar
            if isinstance(c_ma, DomainError):
                raise c_ma
            if isinstance(m, float) and not fixed_ndim:
                sd = float(sd)
                try:
                    power = m ** p2  # the overflow test the scalar kernels make
                except OverflowError:
                    power = math.inf
                if power_overflow or not 0.0 < power < math.inf:
                    raise range_error(sd, power, 0, ())
                try:
                    # NumPy's power, as the array path's: they agree bit for bit.
                    result = cost(sd, float(np.asarray(m) ** p2))
                except ZeroDivisionError:  # ``u·Y`` underflowed to 0
                    result = math.inf
                if not result < math.inf:
                    raise range_error(sd, power, 0, ())
                return float(result)
            sd = float(sd) if isinstance(m, float) else np.asarray(sd, dtype=float)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                power = np.asarray(m) ** p2
                result = cost(sd, power)
            # An overflowing power zeroes the design term instead of failing.
            ok = np.isfinite(result) & (power < math.inf)
            if not ok.all():
                raise range_error(sd, power, int(np.argmin(ok)), result.shape)
            return result

        return curve

    @traced(equation="4", attach_result=True)
    def breakdown(self, sd, n_transistors, feature_um, n_wafers,
                  yield_fraction, cost_per_cm2) -> CostBreakdown:
        """Component-wise split of eq. (4) at a scalar operating point."""
        sd = check_positive(sd, "sd")
        feature_cm = um_to_cm(check_positive(feature_um, "feature_um"))
        yield_fraction = check_fraction(yield_fraction, "yield_fraction")
        cost_per_cm2 = check_positive(cost_per_cm2, "cost_per_cm2")
        n_wafers = check_positive(n_wafers, "n_wafers")
        silicon = feature_cm**2 * sd / (yield_fraction * self.utilization)
        wafer_cm2 = n_wafers * self.wafer.area_cm2
        design_sq = self.design_model.cost(n_transistors, sd) / wafer_cm2
        mask_sq = self.mask_cost(feature_um) / wafer_cm2
        test_sq = 0.0
        if self.test_model is not None:
            test_sq = self.test_model.cost_per_cm2(sd, feature_um, n_transistors)
        return CostBreakdown(
            manufacturing=float(silicon * cost_per_cm2),
            design=float(silicon * design_sq),
            masks=float(silicon * mask_sq),
            test=float(silicon * test_sq),
        )

    def project_cost(self, sd, n_transistors, feature_um, n_wafers, cost_per_cm2) -> float:
        """Total program spend ($): silicon + design + masks for the run."""
        n_wafers = check_positive(n_wafers, "n_wafers")
        cost_per_cm2 = check_positive(cost_per_cm2, "cost_per_cm2")
        silicon = cost_per_cm2 * self.wafer.area_cm2 * n_wafers
        return float(
            silicon + self.design_model.cost(n_transistors, sd) + self.mask_cost(feature_um)
        )


#: The configuration behind Figure 4: eq. (4) with the paper's eq.-(6)
#: constants, 200 mm wafers, no mask/test terms, full utilization.
PAPER_FIGURE4_MODEL = TotalCostModel(include_masks=False)
