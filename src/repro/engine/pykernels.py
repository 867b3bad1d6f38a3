"""Eq. (4) at one operating point, in stdlib ``float`` arithmetic.

:func:`repro.engine.points.price_points` prices every single operating
point (``Scenario.evaluate``, ``evaluate_many`` and the server's
``/evaluate``) through :func:`total_transistor_cost` and
:func:`area_from_sd`. A lone point has nothing to vectorise, and this
module imports only :mod:`math` and :mod:`repro.errors`, so pricing a
point needs no NumPy. The arithmetic follows the *same operation
order* as the vectorized models in :mod:`repro.cost`, so the two agree
to machine precision, and failures raise
:class:`repro.errors.DomainError` with the messages of
:mod:`repro.validation`.

No calibration constant is bound here: every ``a0``/``sd0``/anchor
parameter is an explicit argument, read off the model dataclasses
(``TotalCostModel.scalar_params``) or :mod:`repro.constants`.
"""

from __future__ import annotations

import math

from ..errors import DomainError

__all__ = [
    "lambda_sq_message",
    "area_from_sd",
    "design_cost",
    "mask_set_cost",
    "test_cost_per_cm2",
    "design_cost_per_cm2",
    "total_transistor_cost",
]

#: µm per cm, a name rather than ``repro.units.UM_PER_CM``: that module
#: imports NumPy.
_UM_PER_CM = 1.0e4


# -- validation (mirrors repro.validation message formats) --------------------

def _coerce(value, name: str) -> float:
    """Coerce to a finite float, mirroring ``repro.validation._coerce``."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number; got {value!r}") from exc
    if not math.isfinite(out):
        raise DomainError(f"{name} must be finite; got {out!r}")
    return out


def _positive(value, name: str) -> float:
    """Require ``value > 0``; returns the coerced float."""
    out = _coerce(value, name)
    if out <= 0:
        raise DomainError(f"{name} must be > 0; got {value!r}")
    return out


def _fraction(value, name: str) -> float:
    """Require ``0 < value <= 1``; returns the coerced float."""
    out = _coerce(value, name)
    if out <= 0 or out > 1:
        raise DomainError(f"{name} must lie in (0, 1]; got {value!r}")
    return out


def _feature_cm(feature_um) -> float:
    """A positive ``feature_um`` in centimetres."""
    return _positive(feature_um, "feature_um") / _UM_PER_CM


def lambda_sq_message(lambda_sq: float, feature_um) -> str:
    """Why ``λ²`` (``lambda_sq``, in cm²) left the float range.

    One message for every path that squares ``λ``: an overflow to
    ``inf``, or an underflow to 0 (a subnormal ``feature_um``) that
    would price every design at exactly 0.
    """
    how = "overflows" if lambda_sq else "underflows to 0"
    return f"lambda^2 {how} for feature_um={float(feature_um)!r}"


# -- density identities (eq. 2) ----------------------------------------------

def area_from_sd(sd, n_transistors, feature_um) -> float:
    """Eq. (2) rearranged: die area ``A = N_tr · s_d · λ²`` in cm²."""
    sd = _positive(sd, "sd")
    n_transistors = _positive(n_transistors, "n_transistors")
    feature_cm = _feature_cm(feature_um)
    try:
        lambda_sq = feature_cm**2
    except OverflowError as exc:
        raise DomainError(
            f"die area overflows for sd={sd!r}, n_transistors={n_transistors!r}"
        ) from exc
    if not lambda_sq:
        raise DomainError(lambda_sq_message(lambda_sq, feature_um))
    return n_transistors * sd * lambda_sq


# -- design cost (eq. 6) -------------------------------------------------------

def design_cost(n_transistors, sd, *, a0, p1, p2, sd0) -> float:
    """Eq. (6): ``C_DE = A0 · N_tr^p1 / (s_d − s_d0)^p2`` in $.

    A power that leaves the float range (``N_tr^p1`` or ``(s_d −
    s_d0)^p2`` overflowing, or the margin's power underflowing to 0)
    fails like any other infeasible point.
    """
    n_transistors = _positive(n_transistors, "n_transistors")
    sd_value = _positive(sd, "sd")
    m = sd_value - sd0
    if m <= 0:
        raise DomainError(
            f"s_d must exceed the full-custom bound s_d0={sd0}; got {sd_value!r}")
    try:
        return a0 * n_transistors**p1 / m**p2
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(
            f"eq. (6) design cost is out of float range for "
            f"n_transistors={n_transistors!r}, sd={float(sd)!r}") from exc


# -- mask-set cost (the C_MA of eq. 5) ----------------------------------------

def mask_set_cost(feature_um, *, anchor_cost_usd, anchor_feature_um, exponent,
                  reference_layers) -> float:
    """Mask-set price ``C_MA(λ)`` with the anchored shrink cadence ($).

    The mask-level staircase: ~18 levels at 0.6 µm, +3 per ×0.7 shrink.
    """
    feature_um = _positive(feature_um, "feature_um")
    generations = max(0.0, math.log(0.6 / feature_um) / math.log(1.0 / 0.7))
    if not math.isfinite(generations):
        raise DomainError(
            f"feature_um={feature_um!r} is outside the mask-count model's range")
    layers = int(round(18 + 3.0 * generations))
    scale = (anchor_feature_um / feature_um) ** exponent
    return anchor_cost_usd * scale * (float(layers) / reference_layers)


# -- test cost (§2.5 extension) ------------------------------------------------

def test_cost_per_cm2(sd, feature_um, n_transistors, *, seconds_per_mtransistor,
                      tester_rate_usd_per_hour, handling_usd_per_die) -> float:
    """``Ct_sq``: production-test cost per cm² of silicon ($/cm²)."""
    n_transistors = _positive(n_transistors, "n_transistors")
    sd = _positive(sd, "sd")
    density = 1.0 / (_feature_cm(feature_um)**2 * sd)
    time_part = (seconds_per_mtransistor / 1.0e6
                 * (tester_rate_usd_per_hour / 3600.0) * density)
    area_per_die = n_transistors / density
    handling_part = handling_usd_per_die / area_per_die
    return time_part + handling_part


# -- amortised development cost (eq. 5) and total cost (eq. 4) ----------------

def design_cost_per_cm2(n_transistors, sd, n_wafers, *, wafer_area_cm2,
                        a0, p1, p2, sd0, mask_cost_usd=0.0) -> float:
    """Eq. (5): ``Cd_sq = (C_MA + C_DE)/(N_w · A_w)`` in $/cm²."""
    n_wafers = _positive(n_wafers, "n_wafers")
    c_de = design_cost(n_transistors, sd, a0=a0, p1=p1, p2=p2, sd0=sd0)
    return (c_de + mask_cost_usd) / (n_wafers * wafer_area_cm2)


def total_transistor_cost(sd, n_transistors, feature_um, n_wafers,
                          yield_fraction, cost_per_cm2, *, wafer_area_cm2,
                          a0, p1, p2, sd0, mask_cost_usd=0.0, utilization=1.0,
                          test=None) -> float:
    """Eq. (4): ``C_tr = λ² s_d/(u·Y) · (Cm_sq + Cd_sq + Ct_sq)`` in $.

    ``test`` is ``None`` (no test term) or a ``(seconds_per_mtransistor,
    tester_rate_usd_per_hour, handling_usd_per_die)`` triple. A cost
    that is not a finite float (a subnormal ``Y`` divides past the float
    range) raises instead of returning ``inf``.
    """
    sd_value = _positive(sd, "sd")
    feature_cm = _feature_cm(feature_um)
    yield_fraction = _fraction(yield_fraction, "yield_fraction")
    cost_per_cm2 = _positive(cost_per_cm2, "cost_per_cm2")
    cd_sq = design_cost_per_cm2(
        n_transistors, sd, n_wafers, wafer_area_cm2=wafer_area_cm2,
        a0=a0, p1=p1, p2=p2, sd0=sd0, mask_cost_usd=mask_cost_usd)
    try:
        lambda_sq = feature_cm**2
    except OverflowError:
        lambda_sq = math.inf
    if not 0.0 < lambda_sq < math.inf:
        raise DomainError(lambda_sq_message(lambda_sq, feature_um))
    ct_sq = 0.0
    if test is not None:
        seconds, rate, handling = test
        ct_sq = test_cost_per_cm2(
            sd, feature_um, n_transistors, seconds_per_mtransistor=seconds,
            tester_rate_usd_per_hour=rate, handling_usd_per_die=handling)
    effective_yield = yield_fraction * utilization
    try:
        cost = (lambda_sq * sd_value / effective_yield
                * (cost_per_cm2 + cd_sq + ct_sq))
    except ZeroDivisionError:  # ``u·Y`` underflowed to 0
        cost = math.inf
    if not math.isfinite(cost):
        raise DomainError(
            f"eq. (4) transistor cost is not finite for sd={sd_value!r}, "
            f"feature_um={float(feature_um)!r}, n_wafers={float(n_wafers)!r}, "
            f"yield_fraction={yield_fraction!r}")
    return cost
