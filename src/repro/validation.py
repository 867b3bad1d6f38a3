"""Argument-domain validation helpers.

Every analytic model in this library documents a mathematical domain
(yields in ``(0, 1]``, feature sizes strictly positive, design
sparseness above the full-custom bound, ...). These helpers centralise
the checks so error messages are uniform and every model raises
:class:`repro.errors.DomainError` — never a bare ``ValueError`` or, far
worse, silently returns a negative cost.

All checkers accept scalars or numpy arrays; for arrays the condition
must hold element-wise. Each returns the validated value coerced to
``float`` (scalars) or ``np.ndarray`` (arrays) so call sites can write
``y = check_fraction(y, "Y")``.

A plain ``float`` or ``int`` is checked without NumPy (:func:`as_array`
answers it before importing NumPy), so the scalar paths, and the
modules that validate constants at import, run on an interpreter that
has none. A plain ``float`` that passes its check returns first of all:
scalar solvers validate on every objective evaluation.
"""

from __future__ import annotations

import math

from .engine import pykernels as pyk
from .errors import DomainError

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_fraction",
    "check_open_fraction",
    "check_in_range",
    "check_positive_int",
    "check_finite",
]


def as_array(value):
    """``value`` as a float ndarray when NumPy sees an array of rank ≥ 1,
    else ``None``; a plain ``float`` or ``int`` answers before NumPy is
    imported."""
    if type(value) is float or type(value) is int:
        return None
    import numpy as np
    return np.asarray(value, dtype=float) if np.ndim(value) else None


def _any(condition) -> bool:
    """Whether a comparison of a checked value (a bool, or a bool
    array) holds anywhere."""
    return condition if type(condition) is bool else bool(condition.any())


def _coerce(value, name: str):
    """Coerce to float scalar or float ndarray, rejecting non-numerics."""
    if type(value) is float and -math.inf < value < math.inf:
        return value
    arr = as_array(value)
    if arr is None:
        return pyk.finite(value, name)
    import numpy as np
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite; got non-finite entries")
    return arr


def check_finite(value, name: str):
    """Require ``value`` to be a finite real number (or array thereof)."""
    return _coerce(value, name)


def check_positive(value, name: str):
    """Require ``value > 0`` element-wise."""
    if type(value) is float and 0.0 < value < math.inf:
        return value
    if as_array(value) is None:
        return pyk.positive(value, name)
    out = _coerce(value, name)
    if _any(out <= 0):
        raise DomainError(f"{name} must be > 0; got {value!r}")
    return out


def check_nonnegative(value, name: str):
    """Require ``value >= 0`` element-wise."""
    out = _coerce(value, name)
    if _any(out < 0):
        raise DomainError(f"{name} must be >= 0; got {value!r}")
    return out


def check_fraction(value, name: str):
    """Require ``0 < value <= 1`` element-wise (yields, utilizations)."""
    if type(value) is float and 0.0 < value <= 1.0:
        return value
    if as_array(value) is None:
        return pyk.fraction(value, name)
    arr = _coerce(value, name)
    if _any(arr <= 0) or _any(arr > 1):
        raise DomainError(f"{name} must lie in (0, 1]; got {value!r}")
    return arr


def check_open_fraction(value, name: str):
    """Require ``0 <= value < 1`` element-wise (defect clustering etc.)."""
    out = _coerce(value, name)
    if _any(out < 0) or _any(out >= 1):
        raise DomainError(f"{name} must lie in [0, 1); got {value!r}")
    return out


def check_in_range(value, name: str, low: float, high: float, *, inclusive: bool = True):
    """Require ``low <= value <= high`` (or strict if ``inclusive=False``)."""
    out = _coerce(value, name)
    if inclusive:
        bad = _any(out < low) or _any(out > high)
        bounds = f"[{low}, {high}]"
    else:
        bad = _any(out <= low) or _any(out >= high)
        bounds = f"({low}, {high})"
    if bad:
        raise DomainError(f"{name} must lie in {bounds}; got {value!r}")
    return out


def check_positive_int(value, name: str) -> int:
    """Require a strictly positive integer (wafer counts, transistor counts)."""
    if isinstance(value, bool):
        raise DomainError(f"{name} must be a positive integer; got a bool")
    try:
        as_int = int(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a positive integer; got {value!r}") from exc
    if as_int != value or as_int <= 0:
        raise DomainError(f"{name} must be a positive integer; got {value!r}")
    return as_int
