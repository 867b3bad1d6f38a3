"""Per-pass detection tests for ``repro.lint``.

Each built-in pass gets synthetic fixture modules with seeded
violations written to ``tmp_path``, proving the pass detects exactly
what its rule catalog promises — and stays quiet on the idiomatic
clean form.
"""

from __future__ import annotations

import textwrap

from repro.lint import LintConfig, PassManager, load_project
from repro.lint.findings import Severity
from repro.lint.passes import (
    ApiParityPass,
    ErrorTaxonomyPass,
    ObsWiringPass,
    PaperConstantsPass,
    PolicyThreadingPass,
    UnitsPass,
)


def run_pass(tmp_path, lint_pass, files, config=None, repo_root=None):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    project = load_project(tmp_path / "pkg" if (tmp_path / "pkg").is_dir()
                           else tmp_path,
                           repo_root=repo_root if repo_root is not None
                           else tmp_path)
    manager = PassManager(passes=(lint_pass,), config=config or LintConfig())
    return manager.run(project)


def rules_of(result):
    return [f.rule for f in result.findings]


# -- units ---------------------------------------------------------------

def test_units_flags_cm_factor_multiply(tmp_path):
    result = run_pass(tmp_path, UnitsPass(), {
        "geom.py": """
            def die_area(feature_um, sd, n):
                return n * sd * (feature_um * 1e-4) ** 2
        """})
    assert rules_of(result) == ["UNITS001"]
    assert result.findings[0].severity is Severity.ERROR
    assert "1e-04" in result.findings[0].message or "0.0001" in result.findings[0].message


def test_units_flags_nm_cm_divide(tmp_path):
    result = run_pass(tmp_path, UnitsPass(), {
        "geom.py": "def f(feature_nm):\n    return feature_nm / 1.0e7\n"})
    assert rules_of(result) == ["UNITS001"]


def test_units_module_itself_is_exempt(tmp_path):
    result = run_pass(tmp_path, UnitsPass(), {
        "units.py": "def um_to_cm(x):\n    return x / 1.0e4\n"})
    assert result.findings == ()


def test_units002_needs_length_named_operand(tmp_path):
    result = run_pass(tmp_path, UnitsPass(), {
        "mixed.py": """
            def f(feature_nm, duration):
                a = feature_nm / 1.0e3   # inline nm->um: flagged
                b = duration * 1e3       # ms conversion: not a length
                return a, b
        """})
    assert rules_of(result) == ["UNITS002"]
    assert result.findings[0].severity is Severity.WARNING
    assert "feature_nm" in result.findings[0].message


# -- error-taxonomy ------------------------------------------------------

def test_error_taxonomy_rules(tmp_path):
    result = run_pass(tmp_path, ErrorTaxonomyPass(), {
        "bad.py": """
            def f():
                try:
                    pass
                except:
                    pass
                try:
                    pass
                except Exception:
                    x = 1
                raise ValueError("nope")
        """})
    assert rules_of(result) == ["ERR001", "ERR002", "ERR003"]


def test_error_taxonomy_allows_capture_reraise_and_exempts(tmp_path):
    result = run_pass(tmp_path, ErrorTaxonomyPass(), {
        "good.py": """
            def f(log):
                try:
                    pass
                except Exception as exc:
                    if not log.capture(exc):
                        raise
                raise DomainError("library errors are ReproErrors")
        """,
        "errors.py": "raise ValueError('defining module may raise builtins')\n",
        "validation.py": "raise ValueError('validators may raise builtins')\n",
    })
    assert result.findings == ()


# -- policy-threading ----------------------------------------------------

def test_policy_flags_missing_and_unused_policy(tmp_path):
    result = run_pass(tmp_path, PolicyThreadingPass(), {
        "pkg/optimize/sweeps.py": """
            def cost_sweep(xs):
                return [x for x in xs]

            def volume_sweep(xs, policy=None):
                return list(xs)

            def good_sweep(xs, policy=None):
                return evaluate(xs, policy=policy)

            def _private_sweep(xs):
                return xs

            def unrelated(xs):
                return xs
        """})
    assert rules_of(result) == ["POL001", "POL002"]
    assert "cost_sweep" in result.findings[0].message
    assert "volume_sweep" in result.findings[1].message


def test_policy_audits_only_entry_packages(tmp_path):
    result = run_pass(tmp_path, PolicyThreadingPass(), {
        "pkg/analysis/sweeps.py": "def cost_sweep(xs):\n    return xs\n"})
    assert result.findings == ()


# -- paper-constants -----------------------------------------------------

def test_constants_flags_all_binding_forms(tmp_path):
    result = run_pass(tmp_path, PaperConstantsPass(), {
        "dup.py": """
            sd0 = 100.0

            class Model:
                a0: float = 1000.0

            def run(x, yield_fraction=0.8, *, die_cost_usd=34.0):
                return x
        """})
    assert rules_of(result) == ["CONST001"] * 4


def test_constants_ignores_other_values_and_constants_module(tmp_path):
    result = run_pass(tmp_path, PaperConstantsPass(), {
        "ok.py": """
            sd0 = 120.0          # not the paper value
            tolerance = 100.0    # not a registered name

            def run(x, yield_fraction=None):
                return x
        """,
        "constants.py": "SD0 = 100.0\nsd0 = 100.0\n",
    })
    assert result.findings == ()


# -- api-parity ----------------------------------------------------------

def test_api_flags_missing_all_ghost_export_and_docstrings(tmp_path):
    result = run_pass(tmp_path, ApiParityPass(), {
        "no_all.py": '"""Docstring."""\n\nX = 1\n',
        "ghost.py": '"""Docstring."""\n\n__all__ = ["missing"]\n',
        "undoc.py": '__all__ = ["f"]\n\ndef f():\n    return 1\n',
    })
    assert sorted(rules_of(result)) == ["API001", "API002", "API002", "API004"]
    by_rule = {f.rule: f for f in result.findings}
    assert "missing" in by_rule["API001"].message
    assert "no_all" in by_rule["API004"].path


def test_api_reads_the_lazy_export_table(tmp_path):
    # Names of a package's literal lazy-export table are bound; a seeded
    # ``__all__`` entry in neither the module nor the table still fails.
    result = run_pass(tmp_path, ApiParityPass(), {
        "pkg/__init__.py": '''
            """Package docstring."""

            from . import _lazy

            __getattr__, __dir__ = _lazy.attach(__name__, {
                "mod": ("f", "g as h"),
                "sub": (),
            })

            __all__ = ["f", "h", "sub", "ghost"]
        ''',
    })
    assert [(f.rule, f.message) for f in result.findings] == [
        ("API001", "__all__ lists 'ghost' but the module never binds it")]


def test_api_distrusts_a_non_literal_lazy_table(tmp_path):
    result = run_pass(tmp_path, ApiParityPass(), {
        "pkg/__init__.py": '''
            """Package docstring."""

            from . import _lazy

            TABLE = {"mod": ("f",)}
            __getattr__, __dir__ = _lazy.attach(__name__, TABLE)

            __all__ = ["f"]
        ''',
    })
    assert rules_of(result) == ["API001"]


def test_api_main_modules_are_exempt(tmp_path):
    result = run_pass(tmp_path, ApiParityPass(), {
        "__main__.py": "print('cli')\n"})
    assert result.findings == ()


def test_api_docs_sync_both_directions(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "API.md").write_text(textwrap.dedent("""
        ## `repro`

        | symbol | kind | summary |
        |---|---|---|
        | `f` | function | fine |
        | `stale` | function | no longer exported |
    """))
    result = run_pass(tmp_path, ApiParityPass(), {
        "pkg/__init__.py": textwrap.dedent('''
            """Package docstring."""

            __all__ = ["f", "g"]


            def f():
                """Documented."""


            def g():
                """Documented but missing from docs/API.md."""
        ''')})
    messages = [f.message for f in result.findings if f.rule == "API003"]
    assert any("repro.g exported but missing" in m for m in messages)
    assert any("repro.stale" in m and "no longer exported" in m
               for m in messages)


# -- obs-wiring ----------------------------------------------------------

def test_obs_flags_untraced_entry_point(tmp_path):
    result = run_pass(tmp_path, ObsWiringPass(), {
        "pkg/optimize/solvers.py": """
            def optimal_thing(model):
                return model

            def helper(model):
                return model
        """})
    assert rules_of(result) == ["OBS001"]
    assert "optimal_thing" in result.findings[0].message


def test_obs_accepts_traced_or_explicit_instrumentation(tmp_path):
    result = run_pass(tmp_path, ObsWiringPass(), {
        "pkg/optimize/solvers.py": """
            @traced(equation="4")
            def optimal_decorated(model):
                return model

            def optimal_manual(model):
                record_provenance("x", "4", {})
                return model
        """})
    assert result.findings == ()


def test_obs_flags_per_call_metric_allocation_in_traced_body(tmp_path):
    result = run_pass(tmp_path, ObsWiringPass(), {
        "pkg/model.py": """
            @traced(equation="4")
            def optimal_thing(model):
                sketch = DurationSketch("hot")
                calls = metrics.Counter("calls")
                return model
        """})
    assert rules_of(result) == ["OBS002", "OBS002"]
    assert "DurationSketch" in result.findings[0].message
    assert "Counter" in result.findings[1].message
    assert "optimal_thing" in result.findings[0].message


def test_obs002_applies_outside_entry_packages_and_to_nested_defs(tmp_path):
    # OBS002 audits every @traced body, not just optimize/roadmap entry
    # points, including nested functions.
    result = run_pass(tmp_path, ObsWiringPass(), {
        "pkg/analysis/fits.py": """
            def outer():
                @traced()
                def inner(x):
                    return Histogram("h").observe(x)
                return inner
        """})
    assert rules_of(result) == ["OBS002"]


def test_obs002_quiet_on_gated_helpers_and_hoisted_metrics(tmp_path):
    result = run_pass(tmp_path, ObsWiringPass(), {
        "pkg/model.py": """
            _SKETCH = DurationSketch("hot")

            @traced(equation="4")
            def optimal_thing(model):
                observe_duration("hot", 0.1)
                inc("calls_total")
                _SKETCH.observe(0.1)
                return model

            def untraced_factory():
                return Counter("fine: not a traced body")
        """})
    assert result.findings == ()


def test_obs003_flags_dotted_and_suffixless_metric_names(tmp_path):
    result = run_pass(tmp_path, ObsWiringPass(), {
        "pkg/model.py": """
            def f():
                inc("engine.cache.hits")
                observe("grid.points", 3.0)
                inc("engine_cache_hits")
        """})
    assert rules_of(result) == ["OBS003", "OBS003", "OBS003"]
    assert "not snake_case" in result.findings[0].message
    assert "not snake_case" in result.findings[1].message
    assert "_total" in result.findings[2].message


def test_obs003_flags_bad_label_keys_and_registry_methods(tmp_path):
    result = run_pass(tmp_path, ObsWiringPass(), {
        "pkg/model.py": """
            def f(reg):
                inc("events_total", labels={"Event-Kind": "hit"})
                reg.counter("Lookups", {"event": "miss"})
                reg.gauge("cache_entries", {"CamelKey": "x"})
        """})
    assert rules_of(result) == ["OBS003", "OBS003", "OBS003"]
    assert "label key" in result.findings[0].message
    assert "Lookups" in result.findings[1].message
    assert "CamelKey" in result.findings[2].message


def test_obs003_quiet_on_conforming_and_dynamic_names(tmp_path):
    result = run_pass(tmp_path, ObsWiringPass(), {
        "pkg/model.py": """
            def f(reg, name):
                inc("engine_cache_events_total", labels={"event": "hit"})
                observe("engine_grid_points", 3.0)
                set_gauge("cache_hit_rate", 0.5)
                reg.sketch("engine_evaluate_grid").observe(0.1)
                inc(name)
                inc(f"{name}_total")
                sketch.observe(0.25)
        """})
    assert result.findings == ()
