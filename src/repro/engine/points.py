"""Eq. (4) at single operating points, in stdlib floats.

Every :class:`repro.api.Scenario`, and every point of a served
``/evaluate``, is its own operating point: no ``s_d`` curve is shared
between two of them, so an array call has nothing to vectorise and
would only add dispatch. :func:`price_points` prices a list of points
one at a time through :func:`repro.engine.pykernels.price`
and :func:`~repro.engine.pykernels.area_from_sd` under an
:class:`~repro.robust.ErrorPolicy`. Both ``repro.api.evaluate_many`` and
the server's ``/evaluate`` use it, so the library and the wire give the
same floats and the same diagnostics.

The module imports no NumPy: the server prices wire scenarios with
``PAPER_FIGURE4_MODEL.scalar_params``, and answers ``/evaluate`` on an
interpreter that has none.
"""

from __future__ import annotations

import math

from ..errors import DomainError, ReproError
from ..robust.policy import DiagnosticLog, ErrorPolicy
from . import pykernels
from .pykernels import Eq4Params

__all__ = ["Eq4Params", "price_points"]

#: The ``where`` of every diagnostic :func:`price_points` records: the
#: facade's batch entry point, which both callers answer for.
WHERE = "api.evaluate_many"


def _cost(point, params) -> float:
    if not isinstance(params, Eq4Params):
        return float(params(point.sd, point.n_transistors, point.feature_um,
                            point.n_wafers, point.yield_fraction,
                            point.cost_per_cm2))
    mask_cost = 0.0
    if params.masks is not None:
        anchor_cost, anchor_feature, exponent, layers = params.masks
        try:
            feature_um = pykernels.positive(point.feature_um, "feature_um")
            mask_cost = pykernels.mask_set_cost(
                feature_um, pykernels.mask_layers(feature_um),
                anchor_cost_usd=anchor_cost, anchor_feature_um=anchor_feature,
                exponent=exponent, reference_layers=layers)
        except DomainError as exc:
            mask_cost = exc  # raised after the margin check, as eq. (5) orders it
    return pykernels.price(
        point.sd, point.n_transistors, point.feature_um, point.n_wafers,
        point.yield_fraction, point.cost_per_cm2, params, mask_cost)


def price_points(points, params, policy=ErrorPolicy.RAISE):
    """Eq.-(4) cost and eq.-(2) die area of each operating point, in order.

    ``points`` is a sequence of records carrying ``sd``,
    ``n_transistors``, ``feature_um``, ``n_wafers``, ``yield_fraction``
    and ``cost_per_cm2`` (a :class:`repro.api.Scenario`); ``params`` is one :class:`Eq4Params` for all
    of them or a sequence with one per point, where an entry may also be
    a callable with ``TotalCostModel.transistor_cost``'s signature (a
    model that :attr:`~repro.cost.TotalCostModel.scalar_params` cannot
    describe prices its points itself).

    Returns ``(values, diagnostics)``: one ``(cost, area)`` pair per
    point and the :class:`~repro.robust.Diagnostic` tuple. Under
    ``RAISE`` the first failing point raises its
    :class:`~repro.errors.DomainError`. Under ``MASK``/``COLLECT`` it
    costs NaN (its area stays, NaN only if the area fails too) and adds
    one diagnostic at ``where="api.evaluate_many"``, equation ``"4"``,
    parameter ``"scenario"``, value the float index; ``COLLECT`` then
    raises :class:`~repro.errors.CollectedErrors` once every point was
    tried.
    """
    policy = ErrorPolicy.coerce(policy)
    shared = params if isinstance(params, Eq4Params) else None
    values = []
    log = None
    for i, point in enumerate(points):
        try:
            cost = _cost(point, shared if shared is not None else params[i])
        except ReproError as exc:
            if policy is ErrorPolicy.RAISE:
                raise
            if log is None:
                log = DiagnosticLog(policy, WHERE, equation="4")
            log.capture(exc, parameter="scenario", value=float(i), index=i)
            cost = math.nan
        try:
            area = pykernels.area_from_sd(point.sd, point.n_transistors,
                                          point.feature_um)
        except DomainError:
            if policy is ErrorPolicy.RAISE:
                raise
            area = math.nan
        values.append((cost, area))
    return values, (log.finish() if log is not None else ())
