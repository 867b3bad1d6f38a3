"""Manufacturing cost of a transistor — eqs. (1)–(3) of the paper.

Two equivalent formulations are provided:

* the **wafer view** (eq. 1): ``C_tr = C_w / (N_tr · N_ch · Y)`` —
  price the wafer, divide by good transistors;
* the **density view** (eq. 3): ``C_tr = C_sq · λ² · s_d / Y`` —
  price the silicon per cm², multiply by the area an average transistor
  occupies, divide by yield.

The density view is the paper's analytical workhorse because it factors
the cost into a *process* part (``C_sq``, ``λ``, ``Y``) and a pure
*design* part (``s_d``); the wafer view is what a fab quotes. They
agree exactly when ``N_ch = A_usable/A_ch`` prices only usable silicon;
with realistic die-per-wafer edge losses (see
:mod:`repro.wafer.geometry`) the wafer view is slightly more expensive
— eq. (3) is, as §2.5 stresses, a deliberately *optimistic lower
bound*.

Every function takes floats or NumPy arrays. A result that leaves the
float range is a :class:`DomainError`, with one message on the scalar
and the array path and never a ``RuntimeWarning``: ``λ²`` overflowing
or underflowing to 0 gives
:func:`repro.engine.pykernels.lambda_sq_message`, and any other
non-finite result names the first operating point that made it.
"""

from __future__ import annotations

import numpy as np

from ..density.metrics import area_from_sd
from ..errors import DomainError
from ..obs.instrument import traced
from ..units import um_to_cm
from ..validation import check_fraction, check_positive
from .total import _lambda_sq

__all__ = [
    "transistor_cost_wafer_view",
    "transistor_cost",
    "die_cost",
    "good_transistors_per_wafer",
    "sd_for_transistor_cost",
]


def _finite(value, what: str, **point):
    """``value``, computed under ``np.errstate``, as a float for scalar
    arguments or an array, or a :class:`DomainError` naming the first
    ``point`` entry where it is not finite."""
    ok = np.isfinite(value)
    if ok.all():
        return value if np.ndim(value) else float(value)
    index = int(np.argmin(ok))
    at = ", ".join(f"{name}={float(np.broadcast_to(arg, ok.shape).flat[index])!r}"
                   for name, arg in point.items())
    raise DomainError(f"{what} is not finite for {at}")


@traced(equation="1")
def transistor_cost_wafer_view(wafer_cost_usd, n_transistors, dice_per_wafer, yield_fraction):
    """Eq. (1): ``C_tr = C_w / (N_tr · N_ch · Y)`` in $/transistor.

    Parameters
    ----------
    wafer_cost_usd:
        Cost of one fully processed wafer ``C_w`` ($).
    n_transistors:
        Transistors per chip ``N_tr``.
    dice_per_wafer:
        Chips per wafer ``N_ch``.
    yield_fraction:
        Manufacturing yield ``Y`` in (0, 1].
    """
    wafer_cost_usd = check_positive(wafer_cost_usd, "wafer_cost_usd")
    n_transistors = check_positive(n_transistors, "n_transistors")
    dice_per_wafer = check_positive(dice_per_wafer, "dice_per_wafer")
    yield_fraction = check_fraction(yield_fraction, "yield_fraction")
    with np.errstate(over="ignore", divide="ignore"):
        result = np.divide(wafer_cost_usd,
                           np.multiply(n_transistors, dice_per_wafer) * yield_fraction)
    return _finite(result, "eq. (1) transistor cost",
                   wafer_cost_usd=wafer_cost_usd, n_transistors=n_transistors,
                   dice_per_wafer=dice_per_wafer, yield_fraction=yield_fraction)


@traced(equation="3")
def transistor_cost(cost_per_cm2, feature_um, sd, yield_fraction):
    """Eq. (3): ``C_tr = C_sq · λ² · s_d / Y`` in $/transistor.

    Parameters
    ----------
    cost_per_cm2:
        Manufacturing cost per cm² of fabricated wafer ``C_sq`` ($/cm²).
    feature_um:
        Minimum feature size λ in µm.
    sd:
        Design decompression index (λ² squares per transistor).
    yield_fraction:
        Manufacturing yield ``Y`` in (0, 1].
    """
    cost_per_cm2 = check_positive(cost_per_cm2, "cost_per_cm2")
    feature_um = check_positive(feature_um, "feature_um")
    sd = check_positive(sd, "sd")
    yield_fraction = check_fraction(yield_fraction, "yield_fraction")
    lambda_sq = _lambda_sq(um_to_cm(feature_um), feature_um)
    with np.errstate(over="ignore"):
        result = np.multiply(cost_per_cm2, lambda_sq) * sd / yield_fraction
    return _finite(result, "eq. (3) transistor cost", cost_per_cm2=cost_per_cm2,
                   feature_um=feature_um, sd=sd, yield_fraction=yield_fraction)


@traced(equation="3")
def die_cost(cost_per_cm2, feature_um, sd, n_transistors, yield_fraction):
    """Cost of one *good* die: ``C_ch = C_sq · A_ch / Y`` ($).

    ``A_ch = N_tr · s_d · λ²`` per eq. (2). This is the quantity the
    paper's Figure 3 holds at its 1999 level ($34).
    """
    area = area_from_sd(sd, n_transistors, feature_um)
    cost_per_cm2 = check_positive(cost_per_cm2, "cost_per_cm2")
    yield_fraction = check_fraction(yield_fraction, "yield_fraction")
    with np.errstate(over="ignore"):
        result = np.multiply(cost_per_cm2, area) / yield_fraction
    return _finite(result, "eq. (3) die cost", cost_per_cm2=cost_per_cm2,
                   feature_um=feature_um, sd=sd, n_transistors=n_transistors,
                   yield_fraction=yield_fraction)


@traced(equation="3")
def good_transistors_per_wafer(wafer_area_cm2, feature_um, sd, yield_fraction):
    """Functional transistors harvested per cm²-priced wafer.

    ``N = A_w · Y / (λ² s_d)`` — the reciprocal structure of eq. (3).
    """
    wafer_area_cm2 = check_positive(wafer_area_cm2, "wafer_area_cm2")
    feature_um = check_positive(feature_um, "feature_um")
    sd = check_positive(sd, "sd")
    yield_fraction = check_fraction(yield_fraction, "yield_fraction")
    lambda_sq = _lambda_sq(um_to_cm(feature_um), feature_um)
    with np.errstate(over="ignore", divide="ignore"):
        result = np.divide(np.multiply(wafer_area_cm2, yield_fraction),
                           np.multiply(lambda_sq, sd))
    return _finite(result, "good transistors per wafer",
                   wafer_area_cm2=wafer_area_cm2, feature_um=feature_um, sd=sd,
                   yield_fraction=yield_fraction)


@traced(equation="3")
def sd_for_transistor_cost(target_cost_usd, cost_per_cm2, feature_um, yield_fraction):
    """Invert eq. (3) for ``s_d``: the sparseness budget a cost target buys.

    ``s_d = C_tr · Y / (C_sq · λ²)`` — used by the Figure 3 style
    "what density does the roadmap *require*" computations.
    """
    target_cost_usd = check_positive(target_cost_usd, "target_cost_usd")
    cost_per_cm2 = check_positive(cost_per_cm2, "cost_per_cm2")
    feature_um = check_positive(feature_um, "feature_um")
    yield_fraction = check_fraction(yield_fraction, "yield_fraction")
    lambda_sq = _lambda_sq(um_to_cm(feature_um), feature_um)
    with np.errstate(over="ignore", divide="ignore"):
        result = np.divide(np.multiply(target_cost_usd, yield_fraction),
                           np.multiply(cost_per_cm2, lambda_sq))
    return _finite(result, "eq. (3) s_d", target_cost_usd=target_cost_usd,
                   cost_per_cm2=cost_per_cm2, feature_um=feature_um,
                   yield_fraction=yield_fraction)
