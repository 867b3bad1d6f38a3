"""Eqs. (2) and (4)–(7), the ``C_MA`` and ``Ct_sq`` terms, written once.

The one written form of the paper's cost arithmetic and of its
float-range classification: every failure is a
:class:`repro.errors.DomainError` with :mod:`repro.validation`'s
messages, never a bare ``OverflowError`` or a silent ``inf``. Only
:mod:`math` is imported, so :func:`repro.engine.points.price_points`
prices a point without NumPy.

Eq. (4) has two parts. :func:`eq4_point` checks the fixed arguments in
eq. (4)'s order and sets up ``A0·N_tr^p1``, ``λ²``, ``C_MA``,
``N_w·A_w``, ``u·Y`` and ``Cm_sq``; :meth:`Eq4Point.terms` and
:meth:`~Eq4Point.breakdown` then price an ``s_d`` from the eq.-(6)
power ``(s_d − s_d0)^p2``, which the caller supplies: ``m ** p2`` in
``price_points``, NumPy's power in ``TotalCostModel.sd_curve``, whose
grids use it, so a point and a grid agree bit for bit. The arithmetic
uses only operators, so ``sd_curve``'s general array path and the
component models' array paths run these same functions on arrays.

Eq. (7) is set up as an :class:`Eq7Point` and priced by its
:meth:`~Eq7Point.terms` the same way, with the yield as a callable.

Every model parameter is an explicit argument, read off the model
dataclasses (``TotalCostModel.scalar_params``) or :mod:`repro.constants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ..errors import DomainError

__all__ = [
    "finite",
    "positive",
    "fraction",
    "lambda_sq",
    "lambda_sq_message",
    "area_message",
    "margin_message",
    "eq6_message",
    "eq4_message",
    "eq7_message",
    "die_area",
    "area_from_sd",
    "amplitude",
    "design_cost",
    "amortised",
    "mask_layers",
    "mask_set_cost",
    "test_cost_per_cm2",
    "Eq4Point",
    "Eq4Params",
    "eq4_point",
    "Eq7Point",
    "price",
    "total_transistor_cost",
]

#: µm per cm, a name rather than ``repro.units.UM_PER_CM``: ``units``
#: imports ``validation``, which imports this module.
_UM_PER_CM = 1.0e4


# -- argument checks (repro.validation's scalar half) -------------------------

def finite(value, name: str) -> float:
    """Coerce a scalar to a finite float."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number; got {value!r}") from exc
    if not math.isfinite(out):
        raise DomainError(f"{name} must be finite; got {out!r}")
    return out


def positive(value, name: str) -> float:
    """Require a scalar ``value > 0``; returns it as a float."""
    if type(value) is float and 0.0 < value < math.inf:
        return value
    out = finite(value, name)
    if out <= 0:
        raise DomainError(f"{name} must be > 0; got {value!r}")
    return out


def fraction(value, name: str) -> float:
    """Require a scalar ``0 < value <= 1``; returns it as a float."""
    if type(value) is float and 0.0 < value <= 1.0:
        return value
    out = finite(value, name)
    if out <= 0 or out > 1:
        raise DomainError(f"{name} must lie in (0, 1]; got {value!r}")
    return out


# -- float-range messages ------------------------------------------------------

def lambda_sq_message(lambda_sq, feature_um) -> str:
    """Why ``λ²`` (``lambda_sq``, in cm²) left the float range.

    One message for every path that squares ``λ``: an overflow to
    ``inf``, or an underflow to 0 (a subnormal ``feature_um``) that
    would price every design at exactly 0.
    """
    how = "overflows" if lambda_sq else "underflows to 0"
    return f"lambda^2 {how} for feature_um={float(feature_um)!r}"


def area_message(feature_um, sd, n_transistors) -> str:
    """Eq. (2)'s die area ``N_tr · s_d · λ²`` overflowed (``λ²`` itself, or
    the product)."""
    return (f"implied die area overflows for feature_um={feature_um!r}, "
            f"sd={sd!r}, n_transistors={n_transistors!r}")


def margin_message(sd0, sd) -> str:
    """``s_d`` at or below eq. (6)'s full-custom bound."""
    return f"s_d must exceed the full-custom bound s_d0={sd0}; got {sd!r}"


def eq6_message(n_transistors, sd) -> str:
    """``N_tr^p1`` or ``(s_d − s_d0)^p2`` left the float range."""
    return (f"eq. (6) design cost is out of float range for "
            f"n_transistors={n_transistors!r}, sd={sd!r}")


def eq4_message(sd, feature_um, n_wafers, yield_fraction) -> str:
    """The eq.-(4) cost is not a finite float."""
    return (f"eq. (4) transistor cost is not finite for sd={sd!r}, "
            f"feature_um={feature_um!r}, n_wafers={n_wafers!r}, "
            f"yield_fraction={yield_fraction!r}")


def eq7_message(sd, feature_um, n_wafers) -> str:
    """The eq.-(7) cost is not a finite float."""
    return (f"eq. (7) transistor cost is not finite for sd={sd!r}, "
            f"feature_um={feature_um!r}, n_wafers={n_wafers!r}")


# -- eq. (2) -------------------------------------------------------------------

def lambda_sq(feature_um: float) -> float:
    """``λ²`` in cm² for a checked ``feature_um``, or a ``DomainError``
    if it overflows or underflows to 0."""
    feature_cm = feature_um / _UM_PER_CM
    value = feature_cm * feature_cm
    if 0.0 < value < math.inf:
        return value
    raise DomainError(lambda_sq_message(value, feature_um))


def die_area(n_transistors, sd, lambda_sq):
    """Eq. (2) rearranged, unchecked: ``A = N_tr · s_d · λ²`` in cm²."""
    return n_transistors * sd * lambda_sq


def area_from_sd(sd, n_transistors, feature_um) -> float:
    """Eq. (2) rearranged: die area ``A = N_tr · s_d · λ²`` in cm²."""
    sd = positive(sd, "sd")
    n_transistors = positive(n_transistors, "n_transistors")
    feature_um = positive(feature_um, "feature_um")
    feature_cm = feature_um / _UM_PER_CM
    square = feature_cm * feature_cm
    if not square:
        raise DomainError(lambda_sq_message(square, feature_um))
    area = die_area(n_transistors, sd, square)
    if area == math.inf:
        raise DomainError(area_message(feature_um, sd, n_transistors))
    return area


# -- eq. (6) -------------------------------------------------------------------

def amplitude(n_transistors: float, a0, p1) -> float | None:
    """Eq. (6)'s ``A0·N_tr^p1``, or ``None`` where ``N_tr^p1`` overflows."""
    try:
        return a0 * n_transistors ** p1
    except OverflowError:
        return None


def design_cost(n_transistors: float, sd: float, power: float, *, a0,
                p1) -> float:
    """Eq. (6): ``C_DE = A0 · N_tr^p1 / (s_d − s_d0)^p2`` in $, from
    checked ``n_transistors`` and ``sd`` and the margin's ``power``;
    either power leaving the float range fails."""
    scale = amplitude(n_transistors, a0, p1)
    if scale is None or not 0.0 < power < math.inf:
        raise DomainError(eq6_message(n_transistors, sd))
    return scale / power


# -- eq. (5) and the mask-set cost C_MA it amortises ---------------------------

def amortised(c_de, c_ma, wafer_cm2):
    """Eq. (5): ``Cd_sq = (C_MA + C_DE)/(N_w · A_w)`` in $/cm² (floats
    or NumPy arrays; ``wafer_cm2`` is ``N_w · A_w``)."""
    return (c_de + c_ma) / wafer_cm2



def mask_layers(feature_um: float) -> int:
    """Mask levels at a checked node: ~18 at 0.6 µm, +3 per ×0.7 shrink."""
    generations = max(0.0, math.log(0.6 / feature_um) / math.log(1.0 / 0.7))
    if not math.isfinite(generations):
        raise DomainError(
            f"feature_um={feature_um!r} is outside the mask-count model's range")
    return int(round(18 + 3.0 * generations))


def mask_set_cost(feature_um, layers, *, anchor_cost_usd, anchor_feature_um,
                  exponent, reference_layers):
    """Mask-set price ``C_MA(λ)`` with the anchored shrink cadence ($).

    ``feature_um`` and ``layers`` are floats or NumPy arrays; a float
    scale that overflows fails like the layer staircase does.
    """
    try:
        scale = (anchor_feature_um / feature_um) ** exponent
    except OverflowError:
        raise DomainError(
            f"feature_um={feature_um!r} is outside the mask-count model's "
            f"range") from None
    return anchor_cost_usd * scale * (layers / reference_layers)


# -- test cost (§2.5 extension) ------------------------------------------------

def test_cost_per_cm2(sd, lambda_sq, n_transistors, *, seconds_per_mtransistor,
                      tester_rate_usd_per_hour, handling_usd_per_die):
    """``Ct_sq``: production-test cost per cm² of silicon ($/cm²).

    Floats or NumPy arrays; the tester-time part is a pure density term,
    and the per-die handling part dilutes with the die area.
    """
    density = 1.0 / (lambda_sq * sd)
    time_part = (seconds_per_mtransistor / 1.0e6
                 * (tester_rate_usd_per_hour / 3600.0) * density)
    area_per_die = n_transistors / density
    return time_part + handling_usd_per_die / area_per_die


# -- eqs. (4)–(6) at one operating point ---------------------------------------

class Eq4Point(NamedTuple):
    """Eq. (4) set up at one operating point (see :func:`eq4_point`).

    The fields are floats on the scalar path; ``sd_curve``'s general
    array path fills them with arrays and runs :meth:`sums` on them.
    ``amplitude`` is ``None`` where ``N_tr^p1`` overflows; ``c_ma`` is
    ``C_MA`` or the :class:`DomainError` pricing it raised, which
    :meth:`margin` raises after the margin check, as eq. (5) orders it;
    ``test`` is ``None`` or a function of ``s_d`` and the point giving
    ``Ct_sq``.
    """

    n_transistors: float
    feature_um: float
    n_wafers: float
    yield_fraction: float
    cm_sq: float
    amplitude: float | None
    lambda_sq: float
    c_ma: float
    wafer_cm2: float
    effective_yield: float
    sd0: float
    p2: float
    test: object

    def margin(self, sd: float) -> float:
        """``s_d − s_d0`` of a checked scalar ``sd``, which must be > 0."""
        m = sd - self.sd0
        if not m > 0:
            raise DomainError(margin_message(self.sd0, sd))
        if isinstance(self.c_ma, DomainError):
            raise self.c_ma
        return m

    def sums(self, sd, power):
        """``(silicon, C_DE, Ct_sq, C_tr)``, unchecked: eqs. (6), (5) and (4).

        ``silicon`` is ``λ²·s_d/(u·Y)`` and the cost is
        ``silicon · (Cm_sq + Cd_sq + Ct_sq)`` with
        ``Cd_sq = (C_MA + C_DE)/(N_w·A_w)``.
        """
        c_de = self.amplitude / power
        cd_sq = amortised(c_de, self.c_ma, self.wafer_cm2)
        ct_sq = 0.0 if self.test is None else self.test(sd, self)
        silicon = self.lambda_sq * sd / self.effective_yield
        return silicon, c_de, ct_sq, silicon * (self.cm_sq + cd_sq + ct_sq)

    def terms(self, sd: float, power: float) -> tuple:
        """:meth:`sums` at a scalar ``sd`` past :meth:`margin`, from the
        margin's ``power = (s_d − s_d0)^p2``, with eq. (6)'s and eq.
        (4)'s float-range checks; ``terms(...)[3]`` is the eq.-(4) cost."""
        if self.amplitude is None or not 0.0 < power < math.inf:
            raise DomainError(eq6_message(self.n_transistors, sd))
        try:
            parts = self.sums(sd, power)
        except ZeroDivisionError:  # ``u·Y`` or the test density underflowed
            parts = None
        if parts is None or not parts[3] < math.inf:
            raise DomainError(eq4_message(sd, self.feature_um, self.n_wafers,
                                          self.yield_fraction))
        return parts

    def breakdown(self, sd: float, power: float) -> tuple:
        """``(manufacturing, design, masks, test, total)`` in $/transistor:
        the terms eq. (4) sums, and the cost it returns."""
        silicon, c_de, ct_sq, total = self.terms(sd, power)
        return (silicon * self.cm_sq, silicon * (c_de / self.wafer_cm2),
                silicon * (self.c_ma / self.wafer_cm2), silicon * ct_sq,
                total)


@dataclass(frozen=True, slots=True)
class Eq4Params:
    """The model side of eq. (4) as plain numbers.

    ``masks`` is ``None`` (no ``C_MA`` term) or the mask-set model's
    ``(anchor_cost_usd, anchor_feature_um, exponent, reference_layers)``;
    ``C_MA`` depends on each point's node, so it is priced per point.
    ``test`` is ``None`` or the §2.5 ``(seconds_per_mtransistor,
    tester_rate_usd_per_hour, handling_usd_per_die)`` triple.
    :attr:`repro.cost.TotalCostModel.scalar_params` builds one from a
    model.
    """

    wafer_area_cm2: float
    a0: float
    p1: float
    p2: float
    sd0: float
    masks: tuple | None = None
    utilization: float = 1.0
    test: tuple | None = None


#: ``Eq4Point``'s fields without its Python-level ``__new__``.
_new = tuple.__new__


def eq4_point(n_transistors, feature_um, n_wafers, yield_fraction,
              cost_per_cm2, model, mask_cost=0.0, test=None,
              checks=None) -> Eq4Point:
    """Check eq. (4)'s fixed arguments and set up its ``s_d``-free factors.

    The first failing check names the error, in eq. (4)'s order:
    ``feature_um``, ``yield_fraction``, ``cost_per_cm2``, ``n_wafers``,
    ``n_transistors``, then ``λ²`` leaving the float range. ``model``
    is the :class:`Eq4Params` (its ``masks`` and ``test`` unread);
    ``mask_cost`` and ``test`` are as
    :class:`Eq4Point` keeps them. ``checks`` replaces :func:`positive`,
    :func:`fraction`, :func:`lambda_sq` and :func:`amplitude` with forms
    that also take NumPy arrays (``sd_curve``'s fixed arguments may be).
    """
    check, in_unit, square, scale = checks or _SCALAR_CHECKS
    feature_um = check(feature_um, "feature_um")
    yield_fraction = in_unit(yield_fraction, "yield_fraction")
    cm_sq = check(cost_per_cm2, "cost_per_cm2")
    n_wafers = check(n_wafers, "n_wafers")
    n_transistors = check(n_transistors, "n_transistors")
    return _new(Eq4Point, (
        n_transistors, feature_um, n_wafers, yield_fraction, cm_sq,
        scale(n_transistors, model.a0, model.p1), square(feature_um),
        mask_cost, n_wafers * model.wafer_area_cm2,
        yield_fraction * model.utilization, model.sd0, model.p2, test))


_SCALAR_CHECKS = (positive, fraction, lambda_sq, amplitude)


# -- eq. (7) at one operating point --------------------------------------------

class Eq7Point(NamedTuple):
    """Eq. (7) set up at one operating point by
    ``GeneralizedCostModel.sd_curve``: ``cm_sq`` is ``Cm_sq(A_w, λ, N_w)``,
    ``fault_density`` the composite yield's ``D``, and ``amplitude`` and
    ``c_ma`` are as :class:`Eq4Point` keeps them. ``yield_at(s_d, A, D)``
    is the yield of a die of area ``A``, and ``test`` is ``None`` or
    ``Ct_sq(s_d, λ, N_tr)``.
    """

    n_transistors: float
    feature_um: float
    n_wafers: float
    cm_sq: float
    amplitude: float | None
    lambda_sq: float
    c_ma: float
    wafer_cm2: float
    utilization: float
    fault_density: float
    sd0: float
    p2: float
    yield_at: object
    test: object

    margin = Eq4Point.margin

    def sums(self, sd, power):
        """``(λ²·s_d, u·Y, C_DE, Ct_sq, C_tr)``, unchecked: eqs. (2), (5)–(7);
        ``C_tr = λ²·s_d · (Cm_sq + Cd_sq + Ct_sq)/(u·Y)``."""
        c_de = self.amplitude / power
        cd_sq = amortised(c_de, self.c_ma, self.wafer_cm2)
        ct_sq = (0.0 if self.test is None
                 else self.test(sd, self.feature_um, self.n_transistors))
        area = die_area(self.n_transistors, sd, self.lambda_sq)
        usable = self.utilization * self.yield_at(sd, area, self.fault_density)
        footprint = sd * self.lambda_sq
        return (footprint, usable, c_de, ct_sq,
                footprint * (self.cm_sq + cd_sq + ct_sq) / usable)

    def error(self, sd: float, power: float) -> DomainError:
        """Why the cost at a scalar ``sd`` left the float range."""
        if self.amplitude is None or not 0.0 < power < math.inf:
            return DomainError(eq6_message(self.n_transistors, sd))
        return DomainError(eq7_message(sd, self.feature_um, self.n_wafers))

    def terms(self, sd: float, power: float) -> tuple:
        """:meth:`sums` at a scalar ``sd`` past :meth:`margin`, or the
        :meth:`error` it raises; ``terms(...)[-1]`` is the eq.-(7) cost."""
        try:
            parts = (self.sums(sd, power) if self.amplitude is not None
                     and 0.0 < power < math.inf else None)
        except ZeroDivisionError:  # ``u·Y`` or the test density underflowed
            parts = None
        if parts is None or not parts[-1] < math.inf:
            raise self.error(sd, power)
        return parts

    def breakdown(self, sd: float, power: float) -> tuple:
        """``(manufacturing, design, masks, test, total)`` in $/transistor."""
        footprint, usable, c_de, ct_sq, total = self.terms(sd, power)
        share = footprint / usable
        return (share * self.cm_sq, share * (c_de / self.wafer_cm2),
                share * (self.c_ma / self.wafer_cm2), share * ct_sq, total)


def price(sd, n_transistors, feature_um, n_wafers, yield_fraction,
          cost_per_cm2, params: Eq4Params, mask_cost=0.0) -> float:
    """Eq. (4): ``C_tr = λ² s_d/(u·Y) · (Cm_sq + Cd_sq + Ct_sq)`` in $,
    under ``params`` (its ``test`` triple included; ``masks`` is the
    caller's, who passes ``C_MA`` or the ``DomainError`` pricing it
    raised). The eq.-(6) power is ``m ** p2``."""
    sd = positive(sd, "sd")
    ct_sq = None
    if params.test is not None:
        seconds, rate, handling = params.test

        def ct_sq(s, point):
            return test_cost_per_cm2(
                s, point.lambda_sq, point.n_transistors,
                seconds_per_mtransistor=seconds,
                tester_rate_usd_per_hour=rate, handling_usd_per_die=handling)

    point = eq4_point(n_transistors, feature_um, n_wafers, yield_fraction,
                      cost_per_cm2, params, mask_cost, ct_sq)
    m = point.margin(sd)
    try:
        power = m ** params.p2
    except OverflowError:
        power = math.inf
    return point.terms(sd, power)[3]


def total_transistor_cost(sd, n_transistors, feature_um, n_wafers,
                          yield_fraction, cost_per_cm2, *, wafer_area_cm2,
                          a0, p1, p2, sd0, mask_cost_usd=0.0, utilization=1.0,
                          test=None) -> float:
    """:func:`price` with the model side as keywords; ``test`` is
    ``None`` or a ``(seconds_per_mtransistor, tester_rate_usd_per_hour,
    handling_usd_per_die)`` triple."""
    return price(sd, n_transistors, feature_um, n_wafers, yield_fraction,
                 cost_per_cm2, Eq4Params(wafer_area_cm2, a0, p1, p2, sd0,
                                         utilization=utilization, test=test),
                 mask_cost_usd)
