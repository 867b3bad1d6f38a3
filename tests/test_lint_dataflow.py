"""Tests for the PURE/CONC dataflow passes.

Synthetic trees exercise every rule id in isolation; the seeded
mutation tests then prove detection on the *real* package — removing a
field from a kernel's ``token()`` or a counter's lock must produce the
corresponding finding.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint import LintConfig, load_project, run_lint
from repro.lint.manager import default_root
from repro.lint.passes.dataflow import ConcurrencyPass, KernelPurityPass
from repro.lint.project import LintModule, LintProject, _suppressions

PURITY = (KernelPurityPass(),)
CONCURRENCY = (ConcurrencyPass(),)

CONFIG = LintConfig(
    kernel_modules=("kern.py",),
    metrics_modules=("metrics.py",),
)


def make_tree(tmp_path, files):
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def rules_of(result):
    return [f.rule for f in result.findings]


# -- PURE001: transitively impure kernel bodies --------------------------

def test_pure001_impure_call_through_helper(tmp_path):
    root = make_tree(tmp_path, {"kern.py": """
        import time

        class Kern:
            n: float

            def batch(self, xs):
                return [self._scale(x) for x in xs]

            def _scale(self, x):
                return x * self.n * time.time()

            def token(self):
                return ("Kern", self.n)
    """})
    result = run_lint(root, config=CONFIG, passes=PURITY)
    assert rules_of(result) == ["PURE001"]
    finding = result.findings[0]
    assert "time.time" in finding.message
    assert "Kern._scale" in finding.message  # witness chain


def test_pure001_clean_kernel_is_silent(tmp_path):
    root = make_tree(tmp_path, {"kern.py": """
        class Kern:
            n: float

            def batch(self, xs):
                return [x * self.n for x in xs]

            def token(self):
                return ("Kern", self.n)
    """})
    assert run_lint(root, config=CONFIG, passes=PURITY).findings == ()


# -- PURE002: token() coverage -------------------------------------------

def test_pure002_field_missing_from_token(tmp_path):
    root = make_tree(tmp_path, {"kern.py": """
        class Kern:
            n: float
            m: float

            def batch(self, xs):
                return [x * self.n * self.m for x in xs]

            def token(self):
                return ("Kern", self.n)
    """})
    result = run_lint(root, config=CONFIG, passes=PURITY)
    assert rules_of(result) == ["PURE002"]
    assert "'m'" in result.findings[0].message


def test_pure002_mutable_module_state_on_kernel_path(tmp_path):
    root = make_tree(tmp_path, {"kern.py": """
        TABLE = {"k": 2.0}

        class Kern:
            n: float

            def batch(self, xs):
                return [x * self.n * TABLE["k"] for x in xs]

            def token(self):
                return ("Kern", self.n)
    """})
    result = run_lint(root, config=CONFIG, passes=PURITY)
    assert rules_of(result) == ["PURE002"]
    assert "kern.TABLE" in result.findings[0].message


def test_pure002_immutable_module_binding_is_fine(tmp_path):
    root = make_tree(tmp_path, {"kern.py": """
        SCALE = 2.0
        PAIRS = (("a", 1.0),)

        class Kern:
            n: float

            def batch(self, xs):
                return [x * self.n * SCALE + PAIRS[0][1] for x in xs]

            def token(self):
                return ("Kern", self.n)
    """})
    assert run_lint(root, config=CONFIG, passes=PURITY).findings == ()


# -- PURE003: cached bodies must not write shared state ------------------

def test_pure003_traced_function_writes_module_state(tmp_path):
    root = make_tree(tmp_path, {"mod.py": """
        _CACHE = {}

        def traced(fn):
            return fn

        @traced
        def slow(x):
            _CACHE[x] = x
            return x
    """})
    result = run_lint(root, config=CONFIG, passes=PURITY)
    assert rules_of(result) == ["PURE003"]
    assert "slow()" in result.findings[0].message


# -- CONC002: per-metric lock discipline ---------------------------------

def test_conc002_unlocked_write_flagged_locked_and_setstate_exempt(tmp_path):
    root = make_tree(tmp_path, {"metrics.py": """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0

            def bump(self):
                self.count += 1

            def safe_bump(self):
                with self._lock:
                    self.count += 1

            def __setstate__(self, state):
                self.count = state["count"]
                self._lock = threading.Lock()
    """})
    result = run_lint(root, config=CONFIG, passes=CONCURRENCY)
    assert rules_of(result) == ["CONC002"]
    assert "Counter.bump()" in result.findings[0].message


def test_conc002_ignores_classes_without_lock(tmp_path):
    root = make_tree(tmp_path, {"metrics.py": """
        class Plain:
            def __init__(self):
                self.count = 0

            def bump(self):
                self.count += 1
    """})
    assert run_lint(root, config=CONFIG, passes=CONCURRENCY).findings == ()


# -- seeded mutations on the real tree -----------------------------------

def _mutated_project(rel: str, transform) -> LintProject:
    """The real package with one module's source rewritten."""
    project = load_project(default_root())
    modules = []
    for module in project.modules:
        if module.rel == rel:
            source = transform(module.source)
            assert source != module.source, "mutation did not apply"
            per_line, file_wide = _suppressions(source)
            module = LintModule(
                path=module.path, rel=module.rel, name=module.name,
                source=source, tree=ast.parse(source),
                line_suppressions=per_line, file_suppressions=file_wide)
        modules.append(module)
    return LintProject(root=project.root, repo_root=project.repo_root,
                       modules=tuple(modules))


def test_real_tree_is_clean_for_dataflow_rules():
    project = load_project(default_root())
    config = LintConfig()
    findings = [*KernelPurityPass().run(project, config),
                *ConcurrencyPass().run(project, config)]
    assert findings == []


def test_seeded_token_field_removal_is_detected():
    # Drop cost_per_cm2 from Eq4SdKernel.token(): the memo cache would
    # silently conflate kernels that differ only in wafer cost.
    project = _mutated_project(
        "engine/kernels.py",
        lambda src: src.replace(
            "                _part(self.yield_fraction), "
            "_part(self.cost_per_cm2))",
            "                _part(self.yield_fraction))"))
    findings = list(KernelPurityPass().run(project, LintConfig()))
    hits = [f for f in findings
            if f.rule == "PURE002" and "cost_per_cm2" in f.message]
    assert hits, [f.message for f in findings]


def test_seeded_unlocked_counter_update_is_detected():
    # Bump a counter outside its lock: concurrent request and block
    # threads would lose increments.
    project = _mutated_project(
        "obs/metrics.py",
        lambda src: src.replace(
            "        with self._lock:\n            self.value += amount",
            "        self.value += amount", 1))
    findings = list(ConcurrencyPass().run(project, LintConfig()))
    hits = [f for f in findings
            if f.rule == "CONC002" and "Counter.inc()" in f.message]
    assert hits, [f.message for f in findings]
