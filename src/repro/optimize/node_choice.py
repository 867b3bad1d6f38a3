"""Technology-node selection — the high-cost-era question itself.

The paper's framing question (§1): will nanometre nodes be economically
feasible, and for whom? Per product, moving to a finer node buys a λ²
silicon shrink but pays:

* costlier silicon per cm² (``Cm_sq(λ)``, the wafer-cost model);
* a costlier mask set (×2 per node);
* a costlier *design* — §2.4: prediction degrades as λ shrinks, so the
  iteration count (and eq.-6's effective ``A0``) grows. We scale the
  design cost by the prediction-error ratio
  ``σ(λ)/σ(λ_ref)`` — the two-sided closure mechanism makes expected
  iterations proportional to σ near the density bound;
* density-coupled yield at the new node.

Whether the shrink wins depends on how many **units** amortise the
development bill, so the analysis is framed per unit volume (good dice
to sell), not per wafer run. :func:`optimal_node` co-optimises ``s_d``
at each candidate node and returns the cheapest node per unit.

The signature result (asserted in tests and shown in
``examples/node_selection.py``): **the optimal node is a function of
volume** — high-volume products ride the newest node, low-volume
products rationally stay nodes back. That is the economic
stratification the high-cost era forces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cost.generalized import GeneralizedCostModel
from ..errors import DomainError
from ..interconnect.delay import PredictionErrorModel
from ..obs.instrument import traced
from ..robust.policy import DiagnosticLog, ErrorPolicy
from ..robust.solvers import golden_min
from ..validation import check_positive

__all__ = ["NodeChoice", "evaluate_nodes", "optimal_node", "DEFAULT_NODE_LADDER_UM"]

#: The paper-era node ladder (µm).
DEFAULT_NODE_LADDER_UM = (0.5, 0.35, 0.25, 0.18, 0.13, 0.10, 0.07)


@dataclass(frozen=True)
class NodeChoice:
    """Evaluation of one candidate node for a product.

    Attributes
    ----------
    feature_um:
        The node.
    sd_opt:
        Co-optimised design density at this node.
    cost_per_unit:
        Total cost per good die: silicon + amortised development ($).
    silicon_per_unit / development_per_unit:
        The two components of ``cost_per_unit``.
    wafers_needed:
        Wafer-run size implied by the unit volume at ``sd_opt``.
    yield_at_opt:
        Model yield at the chosen point.
    design_cost_scale:
        The §2.4 node multiplier applied to eq. (6).
    """

    feature_um: float
    sd_opt: float
    cost_per_unit: float
    silicon_per_unit: float
    development_per_unit: float
    wafers_needed: float
    yield_at_opt: float
    design_cost_scale: float


def _node_scaled_model(model: GeneralizedCostModel, feature_um: float,
                       error_model: PredictionErrorModel,
                       reference_um: float) -> GeneralizedCostModel:
    """Scale the eq.-(6) amplitude by the §2.4 prediction-error ratio."""
    scale = error_model.sigma(feature_um) / error_model.sigma(reference_um)
    design = replace(model.design_model, a0=model.design_model.a0 * scale)
    return replace(model, design_model=design)


def _unit_cost(model: GeneralizedCostModel, sd: float, n_transistors: float,
               feature_um: float, n_units: float) -> tuple[float, float, float, float, float]:
    """(total, silicon, development, wafers, yield) per unit at (node, sd)."""
    # um_to_cm divides by 1e4; rewriting this multiply as a divide is
    # not bit-identical for ladder nodes (e.g. 0.35, 0.13 µm).
    # lint: disable=UNITS001
    die_area = n_transistors * sd * (feature_um * 1e-4) ** 2
    # Self-consistent wafer count: yield depends on volume (learning),
    # volume depends on yield. Two fixed-point sweeps converge amply.
    wafers = max(n_units * die_area / model.wafer.area_cm2, 1.0)
    for _ in range(3):
        y = float(model.yield_at(n_transistors, sd, feature_um, wafers))
        wafers = max(n_units * die_area / (model.wafer.area_cm2 * y), 1.0)
    y = float(model.yield_at(n_transistors, sd, feature_um, wafers))
    cm = float(model.cm_sq(feature_um, wafers))
    silicon = cm * die_area / y
    development = (model.design_model.cost(n_transistors, sd)
                   + (model.mask_model.cost(feature_um) if model.include_masks else 0.0)
                   ) / n_units
    if model.test_model is not None:
        silicon += float(model.test_model.cost_per_die(n_transistors)) / y
    total = silicon / model.utilization + development
    return total, silicon / model.utilization, development, wafers, y


def _optimise_sd(model: GeneralizedCostModel, n_transistors: float,
                 feature_um: float, n_units: float, sd_max: float) -> tuple[float, tuple]:
    sd0 = model.design_model.sd0
    lo = sd0 * (1 + 1e-6) + 1e-9
    if sd_max <= lo:
        raise DomainError(f"sd_max={sd_max} must exceed sd0={sd0}")

    def cost(sd: float) -> float:
        return _unit_cost(model, sd, n_transistors, feature_um, n_units)[0]

    sd_opt, _, _ = golden_min(cost, lo, sd_max, 1e-9, 300,
                              solver="optimize.node_choice")
    return sd_opt, _unit_cost(model, sd_opt, n_transistors, feature_um, n_units)


@traced(equation="7")
def evaluate_nodes(
    model: GeneralizedCostModel,
    n_transistors: float,
    n_units: float,
    nodes_um=DEFAULT_NODE_LADDER_UM,
    error_model: PredictionErrorModel | None = None,
    reference_um: float = 0.18,
    sd_max: float = 5000.0,
    policy: ErrorPolicy = ErrorPolicy.RAISE,
    diagnostics: list | None = None,
) -> list[NodeChoice]:
    """Per-unit cost at every candidate node, ``s_d`` co-optimised.

    Parameters
    ----------
    model:
        The eq.-(7) model (its ``design_model.a0`` is treated as the
        amplitude at ``reference_um`` and scaled per node).
    n_transistors:
        Design size.
    n_units:
        Good dice the program will sell.
    nodes_um:
        Candidate nodes.
    error_model:
        §2.4 prediction-error model driving the design-cost node
        scaling (default :class:`PredictionErrorModel`).
    policy:
        Under ``ErrorPolicy.MASK`` a node whose co-optimisation fails
        is dropped from the returned list (plus a
        :class:`repro.robust.Diagnostic` in the optional
        ``diagnostics`` list) instead of aborting the ladder; COLLECT
        raises the aggregate after every node was tried.
    """
    check_positive(n_units, "n_units")
    nodes_um = tuple(nodes_um)
    if not nodes_um:
        raise DomainError("need at least one candidate node")
    policy = ErrorPolicy.coerce(policy)
    log = DiagnosticLog(policy, "optimize.node_choice.evaluate_nodes",
                        equation="7")
    error_model = error_model if error_model is not None else PredictionErrorModel()
    choices = []
    for i, feature in enumerate(nodes_um):
        try:
            scaled = _node_scaled_model(model, feature, error_model, reference_um)
            sd_opt, (total, silicon, development, wafers, y) = _optimise_sd(
                scaled, n_transistors, feature, n_units, sd_max)
            scale = error_model.sigma(feature) / error_model.sigma(reference_um)
        except Exception as exc:  # noqa: BLE001 — capture() re-raises non-ReproError
            if not log.capture(exc, parameter="feature_um", value=feature, index=i):
                raise
            continue
        choices.append(NodeChoice(
            feature_um=float(feature),
            sd_opt=float(sd_opt),
            cost_per_unit=float(total),
            silicon_per_unit=float(silicon),
            development_per_unit=float(development),
            wafers_needed=float(wafers),
            yield_at_opt=float(y),
            design_cost_scale=float(scale),
        ))
    collected = log.finish()
    if diagnostics is not None:
        diagnostics.extend(collected)
    return choices


@traced(equation="7")
def optimal_node(
    model: GeneralizedCostModel,
    n_transistors: float,
    n_units: float,
    nodes_um=DEFAULT_NODE_LADDER_UM,
    error_model: PredictionErrorModel | None = None,
    reference_um: float = 0.18,
    sd_max: float = 5000.0,
    policy: ErrorPolicy = ErrorPolicy.RAISE,
) -> NodeChoice:
    """The cheapest node per unit for this design at this volume.

    ``policy`` is threaded to :func:`evaluate_nodes`; under MASK the
    minimum is taken over the surviving nodes, and
    :class:`repro.errors.DomainError` is raised if none survive.
    """
    choices = evaluate_nodes(model, n_transistors, n_units, nodes_um,
                             error_model, reference_um, sd_max, policy=policy)
    if not choices:
        raise DomainError(
            "no candidate node could be evaluated (all masked as failures)")
    return min(choices, key=lambda c: c.cost_per_unit)
