"""Unit conversions used throughout the library.

The paper mixes the unit systems customary in IC manufacturing
economics:

* minimum feature size ``λ`` is quoted in **micrometres** (1.5 µm for
  the oldest Table A1 design down to 0.12 µm for the newest) and, for
  roadmap nodes, in **nanometres**;
* die and wafer areas are quoted in **cm²**;
* money is quoted in **US dollars**, with wafer costs per cm².

Internally every length is carried in **centimetres** and every area in
**cm²**, because the paper's central identity

    ``s_d = A_ch / (N_tr · λ²)``

only yields a dimensionless ``s_d`` when ``A_ch`` and ``λ²`` share a
unit. The helpers below are the only place unit literals appear; the
rest of the library converts at its API boundary and computes in cm.

All converters accept scalars or numpy arrays and preserve the input
shape; a plain ``float`` or ``int`` converts without importing NumPy.
"""

from __future__ import annotations

from .errors import UnitError
from .validation import as_array

__all__ = [
    "UM_PER_CM",
    "NM_PER_CM",
    "MM_PER_CM",
    "um_to_cm",
    "cm_to_um",
    "nm_to_cm",
    "cm_to_nm",
    "nm_to_um",
    "um_to_nm",
    "mm_to_cm",
    "cm_to_mm",
    "mm2_to_cm2",
    "cm2_to_mm2",
    "length_to_cm",
    "dollars",
    "megadollars",
]

UM_PER_CM = 1.0e4
NM_PER_CM = 1.0e7
MM_PER_CM = 10.0

#: Unit names accepted by :func:`length_to_cm`, mapped to their size in cm.
_LENGTH_UNITS_CM = {
    "cm": 1.0,
    "mm": 1.0 / MM_PER_CM,
    "um": 1.0 / UM_PER_CM,
    "µm": 1.0 / UM_PER_CM,
    "micron": 1.0 / UM_PER_CM,
    "nm": 1.0 / NM_PER_CM,
}


def um_to_cm(value_um):
    """Convert micrometres to centimetres."""
    if type(value_um) is float:
        return value_um / UM_PER_CM
    arr = as_array(value_um)
    return float(value_um) / UM_PER_CM if arr is None else arr / UM_PER_CM


def cm_to_um(value_cm):
    """Convert centimetres to micrometres."""
    arr = as_array(value_cm)
    return float(value_cm) * UM_PER_CM if arr is None else arr * UM_PER_CM


def nm_to_cm(value_nm):
    """Convert nanometres to centimetres."""
    arr = as_array(value_nm)
    return float(value_nm) / NM_PER_CM if arr is None else arr / NM_PER_CM


def cm_to_nm(value_cm):
    """Convert centimetres to nanometres."""
    arr = as_array(value_cm)
    return float(value_cm) * NM_PER_CM if arr is None else arr * NM_PER_CM


def nm_to_um(value_nm):
    """Convert nanometres to micrometres."""
    arr = as_array(value_nm)
    return float(value_nm) / 1.0e3 if arr is None else arr / 1.0e3


def um_to_nm(value_um):
    """Convert micrometres to nanometres."""
    arr = as_array(value_um)
    return float(value_um) * 1.0e3 if arr is None else arr * 1.0e3


def mm_to_cm(value_mm):
    """Convert millimetres to centimetres."""
    arr = as_array(value_mm)
    return float(value_mm) / MM_PER_CM if arr is None else arr / MM_PER_CM


def cm_to_mm(value_cm):
    """Convert centimetres to millimetres."""
    arr = as_array(value_cm)
    return float(value_cm) * MM_PER_CM if arr is None else arr * MM_PER_CM


def mm2_to_cm2(value_mm2):
    """Convert square millimetres to square centimetres."""
    arr = as_array(value_mm2)
    return float(value_mm2) / 100.0 if arr is None else arr / 100.0


def cm2_to_mm2(value_cm2):
    """Convert square centimetres to square millimetres."""
    arr = as_array(value_cm2)
    return float(value_cm2) * 100.0 if arr is None else arr * 100.0


def length_to_cm(value, unit: str):
    """Convert ``value`` expressed in ``unit`` to centimetres.

    Parameters
    ----------
    value:
        Scalar or array-like length.
    unit:
        One of ``"cm"``, ``"mm"``, ``"um"``/``"µm"``/``"micron"``,
        ``"nm"`` (case-insensitive).

    Raises
    ------
    UnitError
        If ``unit`` is not a recognised length unit.
    """
    try:
        factor = _LENGTH_UNITS_CM[unit.strip().lower()]
    except (KeyError, AttributeError) as exc:
        known = ", ".join(sorted(set(_LENGTH_UNITS_CM)))
        raise UnitError(f"unknown length unit {unit!r}; expected one of: {known}") from exc
    arr = as_array(value)
    return float(value) * factor if arr is None else arr * factor


def dollars(value) -> float:
    """Identity helper documenting that a quantity is in US dollars."""
    return float(value)


def megadollars(value_musd) -> float:
    """Convert millions of US dollars to US dollars."""
    return float(value_musd) * 1.0e6
