"""repro — reproduction of W. Maly, *IC Design in High-Cost
Nanometer-Technologies Era* (DAC 2001).

The library implements the paper's transistor cost-model family
(eqs. 1-7), its design-density analytics over Table A1 and the
ITRS-1999 roadmap (Figures 1-3), the cost-optimal design-density study
(Figure 4), and every substrate those depend on: wafer geometry and
cost, defect-limited yield models, interconnect/Rent estimation, a
design-iteration simulator, and a layout-regularity analyzer.

Quick start
-----------
Describe the product as a :class:`~repro.api.Scenario` and evaluate it:

>>> from repro import Scenario, evaluate
>>> result = evaluate(Scenario(n_transistors=10e6, feature_um=0.18, sd=300))
>>> f"{result.cost_per_transistor_usd:.2e} $/tx on {result.area_cm2:.2f} cm^2"
'2.31e-06 $/tx on 0.97 cm^2'

``evaluate_many`` prices a batch, one operating point at a time; the
per-equation entry points remain in the subpackages below:

>>> from repro.cost import transistor_cost
>>> transistor_cost(cost_per_cm2=8.0, feature_um=0.18, sd=300, yield_fraction=0.8)  # doctest: +ELLIPSIS
9.7...e-07

Subpackages
-----------
Each loads on first use: ``import repro`` imports no subpackage, and
``repro.cost`` or ``from repro.obs import span`` imports only the
modules that name needs (see :mod:`repro._lazy`).

``repro.api``
    The facade: ``Scenario`` records in, ``ScenarioResult`` out —
    the documented entry point for pricing designs.
``repro.engine``
    Vectorized batch-evaluation backend (NumPy kernels, blocks
    spread across threads) behind the sweep/roadmap hot loops,
    plus the stdlib single-point pricing behind the facade.
``repro.data``
    Table A1 (49 industrial designs) and the reconstructed ITRS-1999
    roadmap.
``repro.density``
    Eq. (2): design decompression/density indices, trends (Figure 1).
``repro.cost``
    Eqs. (1), (3)-(7): manufacturing, design, mask, test, total and
    generalized transistor cost.
``repro.wafer`` / ``repro.yieldmodels``
    The process-side substrates: wafer formats/cost, die-per-wafer,
    yield statistics, critical area, learning.
``repro.optimize``
    Cost-optimal ``s_d`` (Figure 4), sensitivities, Pareto fronts.
``repro.roadmap``
    Scaling laws, constant-die-cost analysis (Figures 2-3).
``repro.interconnect`` / ``repro.designflow``
    Rent/Donath/delay prediction and the design-iteration simulator
    behind eq. (6).
``repro.layout``
    Layout geometry, repetitive-pattern extraction (ref [33]) and the
    §3.2 regularity economics.
``repro.analysis`` / ``repro.report``
    Fitting/statistics helpers and text rendering.
``repro.obs``
    Observability: span tracing, metrics, and per-evaluation
    provenance (off by default; ``repro.obs.enable()`` turns it on).
``repro.robust``
    Robustness: error policies for sweeps (RAISE/MASK/COLLECT), solver
    retry budgets, quarantine CSV loading, and fault injection.
``repro.serve``
    Cost-model-as-a-service: the HTTP/JSON layer over the facade
    (``python -m repro.serve``), with ``/evaluate`` priced on the event
    loop without NumPy, rate limiting, and the error-policy →
    status-code contract.
``repro.constants``
    The paper-sourced numeric anchors (Eq. (6) fit, Table A1 / ITRS
    cost figures) every other module imports instead of re-typing.
``repro.lint``
    Multi-pass static analysis enforcing the library's units, error,
    policy, constants, API, and observability contracts
    (``python -m repro.lint``).
``repro.bench``
    Statistical benchmark runner and perf-regression gate over the
    paper-artifact suite (``python -m repro.bench``).
"""

from . import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "api": ("Scenario", "ScenarioResult", "evaluate", "evaluate_many"),
    "errors": (
        "CalibrationError", "CollectedErrors", "ConvergenceError", "DataError",
        "DomainError", "InconsistentRecordError", "LayoutError", "LintError",
        "ReproError", "UnitError", "UnknownRecordError",
    ),
    "analysis": (),
    "bench": (),
    "constants": (),
    "cost": (),
    "data": (),
    "density": (),
    "designflow": (),
    "economics": (),
    "engine": (),
    "interconnect": (),
    "layout": (),
    "lint": (),
    "obs": (),
    "optimize": (),
    "report": (),
    "roadmap": (),
    "robust": (),
    "serve": (),
    "units": (),
    "validation": (),
    "wafer": (),
    "yieldmodels": (),
})

__version__ = "1.0.0"

__all__ = [
    "api",
    "engine",
    "Scenario",
    "ScenarioResult",
    "evaluate",
    "evaluate_many",
    "data",
    "density",
    "cost",
    "economics",
    "wafer",
    "yieldmodels",
    "optimize",
    "roadmap",
    "interconnect",
    "designflow",
    "layout",
    "analysis",
    "report",
    "obs",
    "robust",
    "serve",
    "constants",
    "lint",
    "bench",
    "ReproError",
    "DomainError",
    "UnitError",
    "DataError",
    "UnknownRecordError",
    "InconsistentRecordError",
    "CalibrationError",
    "ConvergenceError",
    "CollectedErrors",
    "LayoutError",
    "LintError",
    "__version__",
]
