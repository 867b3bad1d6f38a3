"""Design-density metrics — eq. (2) of the paper.

The paper's central design attribute is the **design decompression
index** ``s_d`` (also called *design sparseness*): the number of
minimum-feature-size squares (λ×λ) needed to draw an average
transistor,

    ``s_d = A_ch / (N_tr · λ²)``.

Its inverse is the **design density index** ``d_d = 1/s_d``, and the
classic **transistor density** factors through both:

    ``T_d = N_tr / A_ch = 1 / (λ² s_d) = d_d / λ²``.

``s_d`` separates the *process* contribution to integration density
(the shrinking λ) from the *design* contribution (layout compactness,
interconnect overhead, time-to-market slack), which is why the paper
proposes it as a figure of merit for design cost-effectiveness.

Unit convention: feature sizes enter in **µm** (the paper's unit) and
areas in **cm²**; ``s_d`` and ``d_d`` are dimensionless; ``T_d`` is in
transistors/cm².
"""

from __future__ import annotations

import math

from ..engine import pykernels as pyk
from ..errors import DomainError
from ..units import cm_to_um, um_to_cm
from ..validation import as_array, check_positive

__all__ = [
    "decompression_index",
    "density_index",
    "transistor_density",
    "transistor_density_from_sd",
    "area_from_sd",
    "transistors_from_sd",
    "feature_from_sd",
]


def decompression_index(area_cm2, n_transistors, feature_um):
    """Design decompression index ``s_d = A/(N λ²)`` (eq. 2).

    Parameters
    ----------
    area_cm2:
        Layout area in cm² (die, block, or region).
    n_transistors:
        Transistor count drawn in that area.
    feature_um:
        Minimum feature size λ in µm.

    Returns
    -------
    float or ndarray
        λ² squares per transistor (dimensionless). Scalars in, scalar
        out; arrays broadcast.
    """
    area_cm2 = check_positive(area_cm2, "area_cm2")
    n_transistors = check_positive(n_transistors, "n_transistors")
    feature_cm = um_to_cm(check_positive(feature_um, "feature_um"))
    return area_cm2 / (n_transistors * feature_cm**2)


def density_index(area_cm2, n_transistors, feature_um):
    """Design density index ``d_d = 1/s_d`` (eq. 2)."""
    return 1.0 / decompression_index(area_cm2, n_transistors, feature_um)


def transistor_density(area_cm2, n_transistors):
    """Transistor density ``T_d = N_tr/A_ch`` in transistors/cm²."""
    area_cm2 = check_positive(area_cm2, "area_cm2")
    n_transistors = check_positive(n_transistors, "n_transistors")
    return n_transistors / area_cm2


def transistor_density_from_sd(sd, feature_um):
    """``T_d = 1/(λ² s_d)`` in transistors/cm² (eq. 2, rearranged)."""
    sd = check_positive(sd, "sd")
    feature_cm = um_to_cm(check_positive(feature_um, "feature_um"))
    return 1.0 / (feature_cm**2 * sd)


def area_from_sd(sd, n_transistors, feature_um):
    """Die area in cm² implied by ``(s_d, N_tr, λ)``: ``A = N s_d λ²``.

    Scalars are :func:`repro.engine.pykernels.area_from_sd`; arrays run
    the same product and fail with its messages, at the first bad entry.
    """
    if (as_array(sd) is None and as_array(n_transistors) is None
            and as_array(feature_um) is None):
        return pyk.area_from_sd(sd, n_transistors, feature_um)
    import numpy as np
    sd = check_positive(sd, "sd")
    n_transistors = check_positive(n_transistors, "n_transistors")
    feature_um = check_positive(feature_um, "feature_um")
    feature_cm = um_to_cm(feature_um)
    with np.errstate(over="ignore", under="ignore"):
        square = np.square(feature_cm)
    area = pyk.die_area(n_transistors, sd, square)
    bad = ~((0.0 < square) & (square < np.inf))
    if bad.any():
        index = int(np.argmax(np.broadcast_to(bad, np.shape(area))))

        def at(value):
            return float(np.broadcast_to(value, np.shape(area)).flat[index])
        if at(square):
            raise DomainError(pyk.area_message(
                at(feature_um), at(sd), at(n_transistors)))
        raise DomainError(pyk.lambda_sq_message(0.0, at(feature_um)))
    return area


def transistors_from_sd(sd, area_cm2, feature_um):
    """Transistor count that fits in ``area_cm2`` at a given ``s_d``."""
    sd = check_positive(sd, "sd")
    area_cm2 = check_positive(area_cm2, "area_cm2")
    feature_cm = um_to_cm(check_positive(feature_um, "feature_um"))
    return area_cm2 / (sd * feature_cm**2)


def feature_from_sd(sd, area_cm2, n_transistors):
    """Feature size (µm) at which ``N_tr`` transistors at ``s_d`` fill ``A``.

    Useful for "what node do we need" questions: inverts eq. (2) for λ.
    """
    sd = check_positive(sd, "sd")
    area_cm2 = check_positive(area_cm2, "area_cm2")
    n_transistors = check_positive(n_transistors, "n_transistors")
    ratio = area_cm2 / (sd * n_transistors)
    if type(ratio) is float:
        return cm_to_um(math.sqrt(ratio))
    import numpy as np
    return cm_to_um(np.sqrt(ratio))
