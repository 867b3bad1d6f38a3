"""Pure-stdlib scalar kernels — the engine's NumPy-free fallback.

This module is deliberately **standalone**: it imports nothing but
:mod:`math`, so it can be loaded on an interpreter that has no NumPy
(and even outside the package, via ``importlib`` file loading — the
no-NumPy test suite does exactly that). It re-states the closed-form
model family of the paper — eqs. (1)–(7), the defect-limited yield
statistics, the wafer-cost factors and the roadmap constant-cost scan
— as plain ``float`` arithmetic, in the *same operation order* as the
vectorized implementations in :mod:`repro.cost`/:mod:`repro.yieldmodels`
so the two backends agree to machine precision.

Because the module cannot import :mod:`repro.errors`, domain failures
raise :class:`KernelError` (a ``ValueError`` subclass) with messages
mirroring :mod:`repro.validation`; the in-package adapters in
:mod:`repro.engine.kernels` and :mod:`repro.engine.points` translate it
to :class:`repro.errors.DomainError` so diagnostics are identical
across backends.

No calibration constant is bound here — every ``a0``/``sd0``/anchor
parameter is an explicit argument supplied by the caller (in-package:
read off the model dataclasses; standalone: passed by the caller).
"""

from __future__ import annotations

import math

__all__ = [
    "KernelError",
    "lambda_sq_message",
    "um_to_cm",
    "positive",
    "nonnegative",
    "fraction",
    "area_from_sd",
    "transistor_density_from_sd",
    "transistor_cost_wafer_view",
    "transistor_cost_density_view",
    "design_margin",
    "design_cost",
    "mask_layer_count",
    "mask_set_cost",
    "test_cost_per_cm2",
    "design_cost_per_cm2",
    "total_transistor_cost",
    "wafer_cost_per_cm2",
    "poisson_yield",
    "murphy_yield",
    "seeds_yield",
    "negative_binomial_yield",
    "learning_multiplier",
    "defect_density",
    "critical_occupancy",
    "faults_per_die",
    "composite_yield",
    "generalized_transistor_cost",
    "constant_cost_sd",
    "map_grid",
]

#: µm per cm — the single unit literal this module owns (it cannot
#: import :mod:`repro.units`; the lint config lists this file next to
#: ``units.py`` as a units-bearing module).
_UM_PER_CM = 1.0e4


class KernelError(ValueError):
    """Domain failure inside a pure-python kernel.

    Mirrors :class:`repro.errors.DomainError` message formats; the
    in-package adapters re-raise it as ``DomainError`` so diagnostics
    are backend-independent.
    """


# -- validation (mirrors repro.validation message formats) --------------------

def _coerce(value, name: str) -> float:
    """Coerce to a finite float, mirroring ``repro.validation._coerce``."""
    try:
        out = float(value)
    except (TypeError, ValueError) as exc:
        raise KernelError(f"{name} must be a real number; got {value!r}") from exc
    if not math.isfinite(out):
        raise KernelError(f"{name} must be finite; got {out!r}")
    return out


def positive(value, name: str) -> float:
    """Require ``value > 0``; returns the coerced float."""
    out = _coerce(value, name)
    if out <= 0:
        raise KernelError(f"{name} must be > 0; got {value!r}")
    return out


def nonnegative(value, name: str) -> float:
    """Require ``value >= 0``; returns the coerced float."""
    out = _coerce(value, name)
    if out < 0:
        raise KernelError(f"{name} must be >= 0; got {value!r}")
    return out


def fraction(value, name: str) -> float:
    """Require ``0 < value <= 1``; returns the coerced float."""
    out = _coerce(value, name)
    if out <= 0 or out > 1:
        raise KernelError(f"{name} must lie in (0, 1]; got {value!r}")
    return out


def um_to_cm(value_um: float) -> float:
    """Convert micrometres to centimetres (scalar)."""
    return float(value_um) / _UM_PER_CM


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
    sd = positive(sd, "sd")
    n_transistors = positive(n_transistors, "n_transistors")
    feature_cm = um_to_cm(positive(feature_um, "feature_um"))
    try:
        lambda_sq = feature_cm**2
    except OverflowError as exc:
        raise KernelError(
            f"die area overflows for sd={sd!r}, n_transistors={n_transistors!r}"
        ) from exc
    if not lambda_sq:
        raise KernelError(lambda_sq_message(lambda_sq, feature_um))
    return n_transistors * sd * lambda_sq


def transistor_density_from_sd(sd, feature_um) -> float:
    """``T_d = 1/(λ² s_d)`` in transistors/cm² (eq. 2, rearranged)."""
    sd = positive(sd, "sd")
    feature_cm = um_to_cm(positive(feature_um, "feature_um"))
    return 1.0 / (feature_cm**2 * sd)


# -- manufacturing cost (eqs. 1 and 3) ----------------------------------------

def transistor_cost_wafer_view(wafer_cost_usd, n_transistors, dice_per_wafer,
                               yield_fraction) -> float:
    """Eq. (1): ``C_tr = C_w / (N_tr · N_ch · Y)`` in $/transistor."""
    wafer_cost_usd = positive(wafer_cost_usd, "wafer_cost_usd")
    n_transistors = positive(n_transistors, "n_transistors")
    dice_per_wafer = positive(dice_per_wafer, "dice_per_wafer")
    yield_fraction = fraction(yield_fraction, "yield_fraction")
    return wafer_cost_usd / (n_transistors * dice_per_wafer * yield_fraction)


def transistor_cost_density_view(cost_per_cm2, feature_um, sd,
                                 yield_fraction) -> float:
    """Eq. (3): ``C_tr = C_sq · λ² · s_d / Y`` in $/transistor."""
    cost_per_cm2 = positive(cost_per_cm2, "cost_per_cm2")
    feature_cm = um_to_cm(positive(feature_um, "feature_um"))
    sd = positive(sd, "sd")
    yield_fraction = fraction(yield_fraction, "yield_fraction")
    return cost_per_cm2 * feature_cm**2 * sd / yield_fraction


# -- design cost (eq. 6) -------------------------------------------------------

def design_margin(sd, sd0) -> float:
    """Density margin ``s_d − s_d0``; fails when ``s_d ≤ s_d0``."""
    sd = positive(sd, "sd")
    m = sd - sd0
    if m <= 0:
        raise KernelError(
            f"s_d must exceed the full-custom bound s_d0={sd0}; got {sd!r}")
    return m


def design_cost(n_transistors, sd, *, a0, p1, p2, sd0) -> float:
    """Eq. (6): ``C_DE = A0 · N_tr^p1 / (s_d − s_d0)^p2`` in $.

    A power that leaves the float range (``N_tr^p1`` or ``(s_d −
    s_d0)^p2`` overflowing, or the margin's power underflowing to 0)
    fails like any other infeasible point.
    """
    n_transistors = positive(n_transistors, "n_transistors")
    m = design_margin(sd, sd0)
    try:
        return a0 * n_transistors**p1 / m**p2
    except (OverflowError, ZeroDivisionError) as exc:
        raise KernelError(
            f"eq. (6) design cost is out of float range for "
            f"n_transistors={n_transistors!r}, sd={float(sd)!r}") from exc


# -- mask-set cost (the C_MA of eq. 5) ----------------------------------------

def mask_layer_count(feature_um) -> int:
    """Mask-level staircase: ~18 levels at 0.6 µm, +3 per ×0.7 shrink."""
    feature_um = positive(feature_um, "feature_um")
    generations = max(0.0, math.log(0.6 / feature_um) / math.log(1.0 / 0.7))
    if not math.isfinite(generations):
        raise KernelError(
            f"feature_um={feature_um!r} is outside the mask-count model's range")
    return int(round(18 + 3.0 * generations))


def mask_set_cost(feature_um, *, anchor_cost_usd, anchor_feature_um, exponent,
                  reference_layers, n_layers=None) -> float:
    """Mask-set price ``C_MA(λ)`` with the anchored shrink cadence ($)."""
    feature_um = positive(feature_um, "feature_um")
    layers = mask_layer_count(feature_um) if n_layers is None else n_layers
    scale = (anchor_feature_um / feature_um) ** exponent
    return anchor_cost_usd * scale * (float(layers) / reference_layers)


# -- test cost (§2.5 extension) ------------------------------------------------

def test_cost_per_cm2(sd, feature_um, n_transistors, *, seconds_per_mtransistor,
                      tester_rate_usd_per_hour, handling_usd_per_die) -> float:
    """``Ct_sq``: production-test cost per cm² of silicon ($/cm²)."""
    n_transistors = positive(n_transistors, "n_transistors")
    density = transistor_density_from_sd(sd, feature_um)
    time_part = (seconds_per_mtransistor / 1.0e6
                 * (tester_rate_usd_per_hour / 3600.0) * density)
    area_per_die = n_transistors / density
    handling_part = handling_usd_per_die / area_per_die
    return time_part + handling_part


# -- amortised development cost (eq. 5) and total cost (eq. 4) ----------------

def design_cost_per_cm2(n_transistors, sd, n_wafers, *, wafer_area_cm2,
                        a0, p1, p2, sd0, mask_cost_usd=0.0) -> float:
    """Eq. (5): ``Cd_sq = (C_MA + C_DE)/(N_w · A_w)`` in $/cm²."""
    n_wafers = positive(n_wafers, "n_wafers")
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
    sd_value = positive(sd, "sd")
    feature_cm = um_to_cm(positive(feature_um, "feature_um"))
    yield_fraction = fraction(yield_fraction, "yield_fraction")
    cost_per_cm2 = positive(cost_per_cm2, "cost_per_cm2")
    cd_sq = design_cost_per_cm2(
        n_transistors, sd, n_wafers, wafer_area_cm2=wafer_area_cm2,
        a0=a0, p1=p1, p2=p2, sd0=sd0, mask_cost_usd=mask_cost_usd)
    ct_sq = 0.0
    if test is not None:
        seconds, rate, handling = test
        ct_sq = test_cost_per_cm2(
            sd, feature_um, n_transistors, seconds_per_mtransistor=seconds,
            tester_rate_usd_per_hour=rate, handling_usd_per_die=handling)
    try:
        lambda_sq = feature_cm**2
    except OverflowError:
        lambda_sq = math.inf
    if not 0.0 < lambda_sq < math.inf:
        raise KernelError(lambda_sq_message(lambda_sq, feature_um))
    effective_yield = yield_fraction * utilization
    try:
        cost = (lambda_sq * sd_value / effective_yield
                * (cost_per_cm2 + cd_sq + ct_sq))
    except ZeroDivisionError:  # ``u·Y`` underflowed to 0
        cost = math.inf
    if not math.isfinite(cost):
        raise KernelError(
            f"eq. (4) transistor cost is not finite for sd={sd_value!r}, "
            f"feature_um={float(feature_um)!r}, n_wafers={float(n_wafers)!r}, "
            f"yield_fraction={yield_fraction!r}")
    return cost


# -- wafer cost (the Cm_sq(A_w, λ, N_w) of eq. 7) -----------------------------

def wafer_cost_per_cm2(feature_um, n_wafers, maturity, *, base_cost_per_cm2,
                       reference_feature_um, feature_exponent, wafer_area_cm2,
                       reference_area_cm2, wafer_area_exponent,
                       volume_overhead, volume_scale,
                       maturity_overhead) -> float:
    """``Cm_sq`` in $/cm²: base × feature × wafer × volume × maturity."""
    feature_um = positive(feature_um, "feature_um")
    n_wafers = positive(n_wafers, "n_wafers")
    maturity = fraction(maturity, "maturity")
    feature_factor = (reference_feature_um / feature_um) ** feature_exponent
    wafer_factor = (wafer_area_cm2 / reference_area_cm2) ** wafer_area_exponent
    volume_factor = 1.0 + volume_overhead / (1.0 + n_wafers / volume_scale)
    maturity_factor = 1.0 + maturity_overhead * (1.0 - maturity)
    return (base_cost_per_cm2 * feature_factor * wafer_factor
            * volume_factor * maturity_factor)


# -- defect-limited yield statistics ------------------------------------------

def poisson_yield(faults) -> float:
    """``Y = exp(−A·D)`` — unclustered defects."""
    faults = nonnegative(faults, "faults")
    return math.exp(-faults)


def murphy_yield(faults) -> float:
    """Murphy's triangular model ``Y = ((1−e^{−AD})/(AD))²`` (1 at AD=0)."""
    faults = nonnegative(faults, "faults")
    if faults == 0:
        return 1.0
    return (-math.expm1(-faults) / faults) ** 2


def seeds_yield(faults) -> float:
    """Seeds' exponential model ``Y = 1/(1 + A·D)``."""
    faults = nonnegative(faults, "faults")
    return 1.0 / (1.0 + faults)


def negative_binomial_yield(faults, alpha) -> float:
    """``Y = (1 + A·D/α)^{−α}`` — the DSM-era industry standard."""
    faults = nonnegative(faults, "faults")
    alpha = positive(alpha, "alpha")
    return (1.0 + faults / alpha) ** (-alpha)


# -- composite yield chain (the Y(...) of eq. 7) ------------------------------

def learning_multiplier(cumulative_wafers, *, initial_multiplier,
                        learning_wafers) -> float:
    """Defect-density multiplier after ``cumulative_wafers`` have run."""
    n = _coerce(cumulative_wafers, "cumulative_wafers")
    if n < 0:
        raise KernelError(
            f"cumulative_wafers must be >= 0; got {cumulative_wafers!r}")
    return 1.0 + (initial_multiplier - 1.0) * math.exp(-n / learning_wafers)


def defect_density(feature_um, *, reference_density_per_cm2,
                   reference_feature_um, feature_exponent,
                   maturity_factor=1.0) -> float:
    """Kill-fault density ``D(λ, m)`` in /cm²."""
    feature_um = positive(feature_um, "feature_um")
    maturity_factor = positive(maturity_factor, "maturity_factor")
    scale = (reference_feature_um / feature_um) ** feature_exponent
    return reference_density_per_cm2 * scale * maturity_factor


def critical_occupancy(sd, *, reference_sd, density_exponent) -> float:
    """Pattern occupancy ``min(1, (s_ref/s_d)^γ)`` at density ``s_d``."""
    sd = positive(sd, "sd")
    ratio = reference_sd / sd
    return min(1.0, ratio**density_exponent)


def faults_per_die(area_cm2, sd, defect_density_per_cm2, *, reference_sd,
                   saturation, density_exponent) -> float:
    """Expected kill-fault count ``A_die · θ(s_d) · saturation · D``."""
    area_cm2 = positive(area_cm2, "area_cm2")
    d = positive(defect_density_per_cm2, "defect_density_per_cm2")
    occupancy = critical_occupancy(
        sd, reference_sd=reference_sd, density_exponent=density_exponent)
    return area_cm2 * (saturation * occupancy) * d


def composite_yield(n_transistors, sd, feature_um, n_wafers, *, statistic,
                    alpha, reference_density_per_cm2, reference_feature_um,
                    feature_exponent, reference_sd, saturation,
                    density_exponent, initial_multiplier, learning_wafers,
                    systematic_yield) -> float:
    """``Y(s_d, λ, N_tr, N_w)`` per eq. (7): area → density → faults → Y.

    ``statistic`` is one of ``"poisson"``, ``"murphy"``, ``"seeds"``,
    ``"negbinomial"`` (the last uses ``alpha``).
    """
    area = area_from_sd(sd, n_transistors, feature_um)
    n_wafers = positive(n_wafers, "n_wafers")
    multiplier = learning_multiplier(
        n_wafers, initial_multiplier=initial_multiplier,
        learning_wafers=learning_wafers)
    density = defect_density(
        feature_um, reference_density_per_cm2=reference_density_per_cm2,
        reference_feature_um=reference_feature_um,
        feature_exponent=feature_exponent, maturity_factor=multiplier)
    faults = faults_per_die(
        area, sd, density, reference_sd=reference_sd, saturation=saturation,
        density_exponent=density_exponent)
    if statistic == "poisson":
        random_yield = poisson_yield(faults)
    elif statistic == "murphy":
        random_yield = murphy_yield(faults)
    elif statistic == "seeds":
        random_yield = seeds_yield(faults)
    elif statistic == "negbinomial":
        random_yield = negative_binomial_yield(faults, alpha)
    else:
        raise KernelError(f"unknown yield statistic {statistic!r}")
    return random_yield * systematic_yield


# -- generalized cost (eq. 7) --------------------------------------------------

def generalized_transistor_cost(sd, n_transistors, feature_um, n_wafers,
                                maturity, *, wafer_area_cm2, wafer_cost_params,
                                yield_params, a0, p1, p2, sd0,
                                mask_cost_usd=0.0, utilization=1.0,
                                test=None) -> float:
    """Eq. (7): ``C_tr = s_d λ² (Cm+Cd+Ct)/(u·Y)`` with live parameters.

    ``wafer_cost_params`` / ``yield_params`` are keyword dicts for
    :func:`wafer_cost_per_cm2` / :func:`composite_yield` minus the
    positional operating point (the kernel adapters build them from the
    model dataclasses).
    """
    sd_value = positive(sd, "sd")
    feature_cm = um_to_cm(positive(feature_um, "feature_um"))
    cm = wafer_cost_per_cm2(feature_um, n_wafers, maturity,
                            wafer_area_cm2=wafer_area_cm2,
                            **wafer_cost_params)
    cd = design_cost_per_cm2(
        n_transistors, sd, n_wafers, wafer_area_cm2=wafer_area_cm2,
        a0=a0, p1=p1, p2=p2, sd0=sd0, mask_cost_usd=mask_cost_usd)
    ct = 0.0
    if test is not None:
        seconds, rate, handling = test
        ct = test_cost_per_cm2(
            sd, feature_um, n_transistors, seconds_per_mtransistor=seconds,
            tester_rate_usd_per_hour=rate, handling_usd_per_die=handling)
    y = composite_yield(n_transistors, sd, feature_um, n_wafers,
                        **yield_params)
    return sd_value * feature_cm**2 * (cm + cd + ct) / (utilization * y)


# -- roadmap constant-cost scan (Figure 3) ------------------------------------

def constant_cost_sd(n_transistors, feature_um, *, die_cost_usd, cost_per_cm2,
                     yield_fraction) -> float:
    """The ``s_d`` a constant die budget affords: ``A_max/(N_tr λ²)``."""
    n_transistors = positive(n_transistors, "n_transistors")
    feature_cm = um_to_cm(positive(feature_um, "feature_um"))
    affordable_area = die_cost_usd * yield_fraction / cost_per_cm2
    return affordable_area / (n_transistors * feature_cm**2)


# -- grid mapping --------------------------------------------------------------

def map_grid(fn, values, *, mask_errors=False):
    """Evaluate ``fn`` over ``values`` one point at a time (pure python).

    Returns ``(results, failures)`` where ``failures`` is a list of
    ``(index, KernelError)`` pairs. With ``mask_errors=False`` (the
    default) the first :class:`KernelError` propagates; with
    ``mask_errors=True`` failing points become ``nan`` and are
    recorded. Non-:class:`KernelError` exceptions always propagate.
    """
    results = []
    failures = []
    for index, value in enumerate(values):
        try:
            results.append(fn(value))
        except KernelError as exc:
            if not mask_errors:
                raise
            results.append(float("nan"))
            failures.append((index, exc))
    return results, failures
