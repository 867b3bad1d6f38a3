"""Obs-wiring pass — public model entry points sit on the obs grid.

PR 1's convention (``docs/observability.md``): every public model
evaluation is reachable by the tracer — decorated ``@traced`` or
explicitly instrumented through the metrics/provenance APIs — so that
``python -m repro --trace`` shows the real call tree, not a partial
one. This pass audits the same entry-point population as the
policy-threading pass, plus the single-point solvers (``optimal_*``):

* ``OBS001`` — a public entry point in the configured packages is
  neither ``@traced`` nor instrumented via
  ``record_provenance``/metrics calls;
* ``OBS002`` — a ``@traced`` function (a hot path by construction)
  constructs a metric object (``Counter``, ``Gauge``, ``Histogram``,
  ``DurationSketch``, ``MetricsRegistry``) per call. Metric objects
  must live in the registry (get-or-create once) or be reached through
  the gated module-level helpers (``inc`` / ``observe`` /
  ``set_gauge`` / ``observe_duration``); allocating them inside the
  traced body defeats the near-zero-cost disabled path the overhead
  guard enforces;
* ``OBS003`` — a literal metric name or label key passed to the
  metrics API breaks the exposition naming convention: names must be
  ``snake_case`` (``[a-z][a-z0-9]*(_[a-z0-9]+)*`` — Prometheus-safe,
  no dots), counters must additionally end in ``_total``, and literal
  label keys must be ``snake_case``. Dynamic names (f-strings,
  variables) are skipped.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..findings import Finding, Severity
from ..project import LintProject
from .base import (
    LintPass,
    RuleSpec,
    called_names,
    decorator_names,
    top_level_functions,
)
from .policy import matches_entry_patterns

__all__ = ["ObsWiringPass"]

#: Calls that count as explicit instrumentation when ``@traced`` is absent.
_INSTRUMENTATION_CALLS = frozenset({
    "record_provenance", "observe", "set_gauge", "counter", "span",
})

#: Metric classes that must never be constructed inside a traced body.
_METRIC_CLASSES = frozenset({
    "Counter", "Gauge", "Histogram", "DurationSketch", "MetricsRegistry",
})

#: Metrics-API calls whose literal first argument is a metric name.
_METRIC_NAME_CALLS = frozenset({
    "inc", "counter", "observe", "set_gauge", "gauge", "histogram",
    "sketch", "observe_duration",
})

#: The subset that names counters (must carry the ``_total`` suffix).
_COUNTER_NAME_CALLS = frozenset({"inc", "counter"})

#: Prometheus-safe snake_case metric-name / label-key shape.
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9]*(_[a-z0-9]+)*$")


def _traced_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Every function (any nesting level) decorated with ``@traced``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and \
                "traced" in set(decorator_names(node)):
            yield node


class ObsWiringPass(LintPass):
    """Flag uninstrumented entry points and per-call metric allocation."""

    name = "obs-wiring"
    rules = (
        RuleSpec("OBS001", Severity.ERROR,
                 "public model entry point is neither @traced nor "
                 "metrics-instrumented"),
        RuleSpec("OBS002", Severity.ERROR,
                 "@traced hot path allocates a per-call metric object"),
        RuleSpec("OBS003", Severity.ERROR,
                 "literal metric name/label breaks the snake_case/_total "
                 "exposition convention"),
    )

    def run(self, project: LintProject, config) -> Iterator[Finding]:
        """Check entry-point wiring, traced-body allocations, metric names."""
        for module in project.modules:
            if module.rel.startswith(tuple(config.entry_packages)):
                yield from self._check_entry_points(project, module, config)
            yield from self._check_traced_allocations(project, module)
            yield from self._check_metric_names(project, module)

    def _check_entry_points(self, project: LintProject, module,
                            config) -> Iterator[Finding]:
        for fn in top_level_functions(module.tree):
            if fn.name.startswith("_"):
                continue
            if not matches_entry_patterns(fn.name, config.obs_patterns):
                continue
            if "traced" in set(decorator_names(fn)):
                continue
            if _INSTRUMENTATION_CALLS & set(called_names(fn)):
                continue
            yield self.finding(
                project, module, "OBS001", fn.lineno,
                f"entry point {fn.name}() is not observability-wired",
                suggestion="decorate with @traced (repro.obs.instrument) "
                           "or record provenance/metrics explicitly")

    def _check_traced_allocations(self, project: LintProject,
                                  module) -> Iterator[Finding]:
        for fn in _traced_functions(module.tree):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                target = node.func
                name = (target.id if isinstance(target, ast.Name)
                        else target.attr if isinstance(target, ast.Attribute)
                        else None)
                if name in _METRIC_CLASSES:
                    yield self.finding(
                        project, module, "OBS002", node.lineno,
                        f"@traced {fn.name}() constructs {name}() per call",
                        suggestion="hoist the metric out of the hot path or "
                                   "use the gated helpers "
                                   "(inc/observe/set_gauge/observe_duration)")

    def _check_metric_names(self, project: LintProject,
                            module) -> Iterator[Finding]:
        """OBS003: literal metric names and label keys follow convention."""
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = node.func
            call = (target.id if isinstance(target, ast.Name)
                    else target.attr if isinstance(target, ast.Attribute)
                    else None)
            if call not in _METRIC_NAME_CALLS:
                continue
            first = node.args[0] if node.args else None
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                name = first.value
                if not _METRIC_NAME_RE.match(name):
                    yield self.finding(
                        project, module, "OBS003", node.lineno,
                        f"metric name {name!r} is not snake_case "
                        f"(in {call}() call)",
                        suggestion="rename to [a-z][a-z0-9_]* segments "
                                   "joined by single underscores (no dots)")
                elif call in _COUNTER_NAME_CALLS and not name.endswith("_total"):
                    yield self.finding(
                        project, module, "OBS003", node.lineno,
                        f"counter name {name!r} lacks the _total suffix "
                        f"(in {call}() call)",
                        suggestion="counters are cumulative — name them "
                                   "<subject>_total")
            yield from self._check_label_keys(project, module, node, call)

    def _check_label_keys(self, project: LintProject, module,
                          node: ast.Call, call: str) -> Iterator[Finding]:
        """Literal ``labels={...}`` dict keys must be snake_case."""
        candidates = [kw.value for kw in node.keywords if kw.arg == "labels"]
        # Registry get-or-create methods also take labels positionally.
        if call in ("counter", "gauge", "histogram") and len(node.args) >= 2:
            candidates.append(node.args[1])
        for cand in candidates:
            if not isinstance(cand, ast.Dict):
                continue
            for key in cand.keys:
                if (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and not _METRIC_NAME_RE.match(key.value)):
                    yield self.finding(
                        project, module, "OBS003", node.lineno,
                        f"label key {key.value!r} is not snake_case "
                        f"(in {call}() call)",
                        suggestion="label keys must match "
                                   "[a-z][a-z0-9]*(_[a-z0-9]+)*")
