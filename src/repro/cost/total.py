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

The arithmetic and its float-range messages are written once, in
:mod:`repro.engine.pykernels`: the scalar paths here call its
:func:`~repro.engine.pykernels.eq4_point` set-up, and the two NumPy
array forms of ``sd_curve`` (its general array expression and its
fused in-place block) run the same set-up on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from ..engine import pykernels as pyk
from ..engine.points import Eq4Params
from ..errors import DomainError
from ..obs.instrument import traced
from ..units import um_to_cm
from ..validation import as_array, check_fraction, check_positive
from ..wafer.specs import WAFER_200MM, WaferSpec
from .design import DesignCostModel, margin_power
from .masks import MaskSetCostModel
from .test import TestCostModel

__all__ = ["CostBreakdown", "TotalCostModel", "PAPER_FIGURE4_MODEL"]

#: Bound on every value the in-place eq.-(4) ufuncs may make: 2**24 below
#: the float maximum, so the last-bit differences between ``math`` and
#: NumPy's ``pow`` cannot carry a value checked below it out of range.
_HEADROOM = 2.0 ** 1000


def _lambda_sq(feature_cm, feature_um):
    """``λ²`` in cm² of a float or array feature size, or the
    ``DomainError`` of :func:`repro.engine.pykernels.lambda_sq` (never a
    warning) if it leaves the float range: overflows, or underflows to 0.
    """
    if isinstance(feature_cm, float):
        return pyk.lambda_sq(float(feature_um))
    import numpy as np
    with np.errstate(over="ignore", under="ignore"):
        lambda_sq = np.square(feature_cm)
    bad = ~((0.0 < lambda_sq) & (lambda_sq < math.inf))
    if not bad.any():
        return lambda_sq
    raise DomainError(pyk.lambda_sq_message(
        lambda_sq[bad].flat[0],
        np.broadcast_to(feature_um, bad.shape)[bad].flat[0]))


def _amplitude(n_transistors, a0, p1):
    """:func:`repro.engine.pykernels.amplitude` of a float or array ``N_tr``."""
    if type(n_transistors) is float:
        return pyk.amplitude(n_transistors, a0, p1)
    import numpy as np
    with np.errstate(over="ignore"):
        return a0 * n_transistors ** p1


#: ``eq4_point``'s checks for fixed arguments that may be arrays: each
#: returns a float for a scalar (with ``pykernels``' scalar check) and
#: an array for an array.
_CHECKS = (check_positive, check_fraction,
           lambda feature_um: _lambda_sq(um_to_cm(feature_um), feature_um),
           _amplitude)


@dataclass(frozen=True)
class CostBreakdown:
    """Per-transistor cost split at one operating point (all $/transistor).

    ``total`` is the model's cost at the point, which the components sum
    to up to rounding.
    """

    manufacturing: float
    design: float
    masks: float
    test: float
    total: float

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
        return pyk.amortised(self.design_model.cost(n_transistors, sd),
                             self.mask_cost(feature_um),
                             n_wafers * self.wafer.area_cm2)

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

        Validates the fixed arguments once, sets up the factors that do
        not depend on ``s_d`` (``A0·N_tr^p1``, ``C_MA``, ``N_w·A_w``,
        ``λ²``, ``u·Y``) and returns ``curve(sd)``, which evaluates
        eqs. (4)–(6) for a scalar or array ``sd``. :meth:`transistor_cost`
        is ``sd_curve(...)(sd)``; a solver that evaluates eq. (4) many
        times at one operating point builds the curve once instead.

        With scalar fixed arguments (a float, an int, a NumPy scalar or
        a 0-d array, all alike) the set-up is
        :func:`repro.engine.pykernels.eq4_point`, kept as
        ``curve.point``, and a scalar ``sd`` is priced by it from NumPy's
        ``(s_d − s_d0)^p2``. An array ``sd``, or an array fixed
        argument (``curve.point`` is then ``None``), runs the same
        :meth:`~repro.engine.pykernels.Eq4Point.sums` on arrays. A cost
        that leaves the float range raises :class:`DomainError` with the
        message the scalar path gives for the same point (an eq.-(6)
        power out of range, else a non-finite eq.-(4) cost), never a
        warning.

        ``curve(sd, out=buf, scratch=tmp)`` writes an array ``sd``'s
        costs into ``buf`` and returns it, using ``tmp`` (same shape,
        float) as its only working memory. With scalar fixed arguments,
        no test model and a valid ``C_MA`` it runs the same ufuncs in
        place, so the values are bit-identical to ``curve(sd)``; it
        falls back to ``curve(sd)`` otherwise, on any invalid ``sd`` and
        when the grid's ``s_d`` range could leave the float range, so
        the errors are too.
        """
        point = self._point(n_transistors, feature_um, n_wafers,
                            yield_fraction, cost_per_cm2, checks=_CHECKS)
        scalar = (type(point.n_transistors) is type(point.feature_um)
                  is type(point.n_wafers) is type(point.yield_fraction)
                  is type(point.cm_sq) is float)
        design = self.design_model
        sd0, p2, c_ma = point.sd0, point.p2, point.c_ma
        power_overflow = point.amplitude is None
        grid_point = point._replace(amplitude=math.inf) if power_overflow else point
        fused = (scalar and self.test_model is None and not power_overflow
                 and not isinstance(c_ma, DomainError))

        def range_error(sd, power, index, shape):
            """The DomainError for the point at flat ``index``."""
            import numpy as np

            def at(value):
                return float(np.broadcast_to(value, shape).flat[index])
            if power_overflow or not 0.0 < at(power) < math.inf:
                return DomainError(pyk.eq6_message(at(point.n_transistors),
                                                   at(sd)))
            return DomainError(pyk.eq4_message(
                at(sd), at(point.feature_um), at(point.n_wafers),
                at(point.yield_fraction)))

        def in_range(m_lo, m_hi):
            """Whether every value the in-place ufuncs make for margins in
            ``[m_lo, m_hi]`` stays far inside the float range: each bound
            is one float operation on the extreme margins."""
            try:
                c_hi = m_hi ** p2
                c_de_hi = point.amplitude / m_lo ** p2
                silicon_hi = (point.lambda_sq * (sd0 + m_hi)
                              / point.effective_yield)
            except (OverflowError, ZeroDivisionError):
                return False
            cd_hi = (c_de_hi + c_ma) / point.wafer_cm2
            return (c_hi < _HEADROOM and c_de_hi + c_ma < _HEADROOM
                    and silicon_hi < _HEADROOM
                    and point.cm_sq + cd_hi < _HEADROOM
                    and silicon_hi * (point.cm_sq + cd_hi) < _HEADROOM)

        def into(sd, out, scratch):
            import numpy as np
            if fused and type(sd) is np.ndarray and sd.dtype == np.float64:
                m = np.subtract(sd, sd0, out=np.empty_like(sd) if scratch is None else scratch)
                # check_positive's finite and > 0 tests and margin's
                # > s_d0 test in one pass: all hold exactly when
                # 0 < m < inf (a NaN fails both comparisons); the same
                # extremes bound every intermediate value.
                m_lo = m.min(initial=np.inf)
                m_hi = m.max(initial=-np.inf)
                if 0.0 < m_lo and m_hi < np.inf and (
                        not m.size or in_range(float(m_lo), float(m_hi))):
                    # Eq4Point.sums' ufuncs in its order, one buffer each side.
                    c = np.power(m, p2, out=m)
                    np.divide(point.amplitude, c, out=c)
                    np.add(c, c_ma, out=c)
                    np.divide(c, point.wafer_cm2, out=c)
                    # ``+ ct_sq`` is left out: with ``Ct_sq = 0`` it is
                    # the identity on ``Cm_sq + Cd_sq`` > 0, never -0.0.
                    np.add(point.cm_sq, c, out=c)
                    np.multiply(point.lambda_sq, sd, out=out)
                    np.divide(out, point.effective_yield, out=out)
                    return np.multiply(out, c, out=out)
            # Anything else, and every failed check, takes the general
            # path, which raises the same DomainError as before.
            out[...] = curve(sd)
            return out

        def curve(sd, out=None, scratch=None):
            if out is not None:
                return into(sd, out, scratch)
            if scalar and (type(sd) is float or as_array(sd) is None):
                sd = pyk.positive(sd, "sd")
                return point.terms(sd, margin_power(point.margin(sd), p2))[3]
            import numpy as np
            m = design.margin(sd)
            if isinstance(c_ma, DomainError):
                raise c_ma
            # An array even for a scalar ``sd``: with ``u·Y`` underflowed
            # to 0, float operands would raise ZeroDivisionError, where
            # NumPy's give the non-finite cost classified below.
            sd = np.asarray(sd, dtype=float)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                power = np.asarray(m) ** p2
                result = grid_point.sums(sd, power)[3]
            # An overflowing power zeroes the design term instead of failing.
            ok = np.isfinite(result) & (power < math.inf)
            if not ok.all():
                raise range_error(sd, power, int(np.argmin(ok)), result.shape)
            return result

        curve.point = point if scalar else None
        return curve

    @cached_property
    def _constants(self) -> Eq4Params:
        """The model side of eq. (4) that ``eq4_point`` reads."""
        design = self.design_model
        return Eq4Params(self.wafer.area_cm2, design.a0, design.p1, design.p2,
                         design.sd0, utilization=self.utilization)

    def _point(self, n_transistors, feature_um, n_wafers, yield_fraction,
               cost_per_cm2, checks=None) -> pyk.Eq4Point:
        """:func:`repro.engine.pykernels.eq4_point` under this model."""
        test_model = self.test_model
        try:
            c_ma = self.mask_cost(feature_um)
        except DomainError as exc:
            c_ma = exc
        return pyk.eq4_point(
            n_transistors, feature_um, n_wafers, yield_fraction, cost_per_cm2,
            self._constants, c_ma, None if test_model is None else (
                lambda sd, point: test_model.cost_per_cm2(
                    sd, point.feature_um, point.n_transistors)), checks)

    @traced(equation="4", attach_result=True)
    def breakdown(self, sd, n_transistors, feature_um, n_wafers,
                  yield_fraction, cost_per_cm2) -> CostBreakdown:
        """Component-wise split of eq. (4) at a scalar operating point.

        The components are the terms eq. (4) sums, and ``total`` is the
        sum it returns: :meth:`transistor_cost`'s value, and its errors.
        """
        sd = pyk.positive(sd, "sd")
        point = self._point(n_transistors, feature_um, n_wafers,
                            yield_fraction, cost_per_cm2)
        power = margin_power(point.margin(sd), self.design_model.p2)
        return CostBreakdown(*point.breakdown(sd, power))

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
