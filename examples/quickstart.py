#!/usr/bin/env python3
"""Quickstart: price a design with the paper's cost models.

Walks the core API end to end for one hypothetical product — a 10M-
transistor 0.18 µm part, the workload of the paper's Figure 4:

1. design density (eq. 2),
2. manufacturing cost per transistor (eq. 3),
3. total cost with design amortisation (eqs. 4-6),
4. the cost-optimal design density (§3.1),
5. the generalized eq.-(7) view with live yield/wafer-cost models.

Run:  python examples/quickstart.py
"""

from repro import Scenario, evaluate_many
from repro.cost import (
    DEFAULT_GENERALIZED_MODEL,
    PAPER_FIGURE4_MODEL,
    transistor_cost,
)
from repro.density import area_from_sd, decompression_index
from repro.optimize import optimal_sd, optimal_sd_generalized
from repro.report import format_table


def main() -> None:
    # ------------------------------------------------------------------
    # The product: 10M transistors at the 1999 node, drawn at s_d = 300.
    # ------------------------------------------------------------------
    n_transistors = 10e6
    feature_um = 0.18
    sd = 300.0

    die_area = area_from_sd(sd, n_transistors, feature_um)
    print(f"Die area at s_d={sd:.0f}: {die_area:.3f} cm^2")
    print(f"(sanity: s_d back from the die = "
          f"{decompression_index(die_area, n_transistors, feature_um):.1f})")

    # ------------------------------------------------------------------
    # Eq. (3): manufacturing-only cost per functional transistor.
    # ------------------------------------------------------------------
    cost_per_cm2 = 8.0           # $/cm^2, the paper's 1999 anchor
    yield_fraction = 0.8
    c_mfg = transistor_cost(cost_per_cm2, feature_um, sd, yield_fraction)
    print(f"\nEq. (3) manufacturing cost: {c_mfg:.3e} $/transistor "
          f"({c_mfg * n_transistors:.2f} $/die)")

    # ------------------------------------------------------------------
    # Eq. (4): fold in design cost, amortised over the wafer run.
    # One Scenario per volume; evaluate_many prices each operating
    # point in stdlib floats.
    # ------------------------------------------------------------------
    scenarios = [
        Scenario(n_transistors=n_transistors, feature_um=feature_um, sd=sd,
                 n_wafers=n_wafers, yield_fraction=yield_fraction,
                 cost_per_cm2=cost_per_cm2, label=f"{n_wafers:,}")
        for n_wafers in (1_000, 5_000, 50_000, 500_000)
    ]
    rows = []
    for res in evaluate_many(scenarios):
        breakdown = PAPER_FIGURE4_MODEL.breakdown(
            sd, n_transistors, feature_um, res.scenario.n_wafers,
            yield_fraction, cost_per_cm2)
        rows.append((res.scenario.label, breakdown.manufacturing,
                     breakdown.design, res.cost_per_transistor_usd,
                     100 * breakdown.development_share))
    print("\n" + format_table(
        ["wafers", "mfg $/tx", "design $/tx", "total $/tx", "dev share %"],
        rows, float_spec=".3g",
        title="Eq. (4): the same design at different volumes"))

    # ------------------------------------------------------------------
    # §3.1: the cost-optimal density for this product at 5000 wafers.
    # ------------------------------------------------------------------
    opt = optimal_sd(PAPER_FIGURE4_MODEL, n_transistors, feature_um,
                     5_000, 0.4, cost_per_cm2)
    print(f"\nOptimal s_d at 5,000 wafers, Y=0.4 (Figure 4a): "
          f"{opt.sd_opt:.0f}  ->  {opt.cost_opt:.3e} $/tx")
    opt_hi = optimal_sd(PAPER_FIGURE4_MODEL, n_transistors, feature_um,
                        50_000, 0.9, cost_per_cm2)
    print(f"Optimal s_d at 50,000 wafers, Y=0.9 (Figure 4b): "
          f"{opt_hi.sd_opt:.0f}  ->  {opt_hi.cost_opt:.3e} $/tx")
    print("-> the optimum moves with volume; neither the smallest die nor "
          "maximum yield is the objective.")

    # ------------------------------------------------------------------
    # Eq. (7): let yield and wafer cost respond to the operating point.
    # ------------------------------------------------------------------
    gopt = optimal_sd_generalized(DEFAULT_GENERALIZED_MODEL, n_transistors,
                                  feature_um, 5_000)
    y = DEFAULT_GENERALIZED_MODEL.yield_at(n_transistors, gopt.sd_opt,
                                           feature_um, 5_000)
    cm = DEFAULT_GENERALIZED_MODEL.cm_sq(feature_um, 5_000)
    print(f"\nGeneralized model (eq. 7): optimal s_d={gopt.sd_opt:.0f}, "
          f"with model-implied Y={y:.2f} and Cm_sq={cm:.1f} $/cm^2")


if __name__ == "__main__":
    main()
