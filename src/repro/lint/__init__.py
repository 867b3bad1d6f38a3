"""Static analysis for the repro library (``python -m repro.lint``).

A pass-manager-based analyzer that parses the package once into
annotated ASTs (:func:`~repro.lint.project.load_project`) and runs
pluggable checker passes over the shared project model. Each pass
emits structured :class:`~repro.lint.findings.Finding` records; the
:class:`~repro.lint.manager.PassManager` applies ``# lint: disable=``
suppression comments, config overrides from ``[tool.repro-lint]`` in
``pyproject.toml``, and the committed baseline before the CLI decides
the exit code.

The built-in suite enforces the conventions the rest of the library is
written against:

* **units** — unit-conversion literals (1e4, 1e7, ...) belong in
  :mod:`repro.units`, not inline;
* **error-taxonomy** — failures are :class:`~repro.errors.ReproError`
  subclasses, never bare ``except:`` or ad-hoc ``ValueError``;
* **policy-threading** — sweep/series entry points accept and use an
  :class:`~repro.robust.policy.ErrorPolicy`;
* **paper-constants** — paper-sourced numbers (Eq. (6) fit, Table A1
  anchors) come from :mod:`repro.constants`;
* **api-parity** — ``__all__``, docstrings, and ``docs/API.md`` agree;
* **obs-wiring** — public model entry points are instrumented via
  :mod:`repro.obs`.

Programmatic use::

    from repro.lint import run_lint
    result = run_lint()
    for finding in result.findings:
        print(finding.format())
"""

from __future__ import annotations

from .. import _lazy

__getattr__, __dir__ = _lazy.attach(__name__, {
    "baseline": ("apply_baseline", "load_baseline", "write_baseline"),
    "cli": ("main",),
    "config": ("LintConfig", "load_config"),
    "findings": ("Finding", "Severity"),
    "graph": ("CallGraph", "build_call_graph"),
    "manager": ("LintResult", "PassManager", "run_lint"),
    "passes": ("DEFAULT_PASSES", "LintPass", "RuleSpec"),
    "project": ("LintModule", "LintProject", "load_project"),
    "reporters": ("render_json", "render_sarif", "render_text"),
})

__all__ = [
    "Finding",
    "Severity",
    "LintConfig",
    "load_config",
    "LintModule",
    "LintProject",
    "load_project",
    "LintPass",
    "RuleSpec",
    "DEFAULT_PASSES",
    "PassManager",
    "LintResult",
    "run_lint",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "CallGraph",
    "build_call_graph",
    "render_text",
    "render_json",
    "render_sarif",
    "main",
]
