"""Single home of the paper's numeric constants.

Every number quoted by Maly (DAC 2001) that the library hard-codes
lives here, exactly once. Eq. (6)'s calibration constants, the Figure 3
cost anchors — any module that needs one imports it from this module
instead of repeating the literal, so the values stay mechanically
auditable (the same discipline cost-model comparisons across
technologies depend on).

The ``PAPER_CONSTANT_ALIASES`` registry at the bottom maps the
*parameter names* these constants are conventionally bound to (``a0``,
``sd0``, ``die_cost_usd``, ...) onto the canonical symbol and value.
``repro.lint``'s paper-constants pass (rule ``CONST001``) uses it to
flag any module that re-binds one of those names to the raw literal
instead of importing the symbol.

The values themselves are plain floats — importing this module is
side-effect free and dependency free.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "EQ6_A0",
    "EQ6_P1",
    "EQ6_P2",
    "EQ6_SD0",
    "MPU_DIE_COST_1999_USD",
    "MANUFACTURING_COST_PER_CM2_USD",
    "ASSUMED_YIELD",
    "WAFER_200MM_DIAMETER_MM",
    "PaperConstant",
    "PAPER_CONSTANT_ALIASES",
]

# --- Eq. (6) design-cost calibration (§2.4, footnote 1) ----------------------

#: Eq. (6) amplitude ``A0`` ($ per transistor^p1).
EQ6_A0 = 1000.0
#: Eq. (6) complexity exponent ``p1`` on the transistor count.
EQ6_P1 = 1.0
#: Eq. (6) divergence exponent ``p2`` on the density margin.
EQ6_P2 = 1.2
#: Full-custom design-density bound ``s_d0`` (λ²/transistor), read off
#: the densest Table A1 microprocessors.
EQ6_SD0 = 100.0

# --- Figure 3 cost anchors (§2.2.3) ------------------------------------------

#: Maximum acceptable cost-performance MPU die cost, 1999 anchor ($).
MPU_DIE_COST_1999_USD = 34.0
#: Manufacturing cost ``C_sq`` held flat across the roadmap ($/cm²).
MANUFACTURING_COST_PER_CM2_USD = 8.0
#: Yield ``Y`` held flat across the roadmap (fraction).
ASSUMED_YIELD = 0.8

# --- Figure 4 wafer format ----------------------------------------------------

#: Diameter of the 200 mm wafers the Figure-4 configuration amortises
#: eq.-(5) development cost over (mm).
WAFER_200MM_DIAMETER_MM = 200.0


class PaperConstant(NamedTuple):
    """One registered paper constant: its canonical symbol and value.

    Attributes
    ----------
    symbol:
        The name exported by this module (``"EQ6_A0"``).
    value:
        The numeric value the paper quotes.
    source:
        Where in the paper the number comes from.
    """

    symbol: str
    value: float
    source: str


#: Parameter names conventionally bound to a paper constant, mapped to
#: the canonical symbol. ``repro.lint`` flags ``name = <literal>``
#: bindings (assignments, dataclass fields, parameter defaults) whose
#: name appears here with the matching raw value outside this module.
PAPER_CONSTANT_ALIASES: dict[str, PaperConstant] = {
    "a0": PaperConstant("EQ6_A0", EQ6_A0, "eq. (6), §2.4"),
    "p1": PaperConstant("EQ6_P1", EQ6_P1, "eq. (6), §2.4"),
    "p2": PaperConstant("EQ6_P2", EQ6_P2, "eq. (6), §2.4"),
    "sd0": PaperConstant("EQ6_SD0", EQ6_SD0, "eq. (6), §2.4"),
    "die_cost_usd": PaperConstant(
        "MPU_DIE_COST_1999_USD", MPU_DIE_COST_1999_USD, "Figure 3, §2.2.3"),
    "mpu_die_cost_usd": PaperConstant(
        "MPU_DIE_COST_1999_USD", MPU_DIE_COST_1999_USD, "Figure 3, §2.2.3"),
    "cost_per_cm2": PaperConstant(
        "MANUFACTURING_COST_PER_CM2_USD", MANUFACTURING_COST_PER_CM2_USD,
        "Figure 3, §2.2.3"),
    "base_cost_per_cm2": PaperConstant(
        "MANUFACTURING_COST_PER_CM2_USD", MANUFACTURING_COST_PER_CM2_USD,
        "Figure 3, §2.2.3"),
    "yield_fraction": PaperConstant(
        "ASSUMED_YIELD", ASSUMED_YIELD, "Figure 3, §2.2.3"),
}
