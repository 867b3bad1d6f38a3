"""The shipped tree must be finding-free at default severity.

This is the analyzer's standing acceptance test: ``python -m
repro.lint`` exits 0 on the repository, the committed baseline holds
no rule family beyond ``OBS003``, and the rule catalog in
``docs/static_analysis.md`` covers every registered rule id. Two git
checks keep bytecode caches out of the repository.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.lint import DEFAULT_PASSES, apply_baseline, load_baseline, run_lint
from repro.lint.findings import Severity

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
BASELINE = REPO / "tools" / "lint_baseline.json"


def test_shipped_tree_is_finding_free_beyond_baseline():
    result = run_lint()
    fresh, accepted = apply_baseline(list(result.findings),
                                     load_baseline(BASELINE))
    assert fresh == [], "\n".join(f.format() for f in fresh)
    assert result.modules_scanned > 90


def test_cli_exits_zero_on_repo():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--format", "json"],
        capture_output=True, text=True, cwd=REPO,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin:/usr/local/bin"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["summary"]["errors"] == 0
    assert doc["summary"]["findings"] == 0


def test_committed_baseline_grandfathers_only_legacy_metric_names():
    baseline = json.loads(BASELINE.read_text())
    assert baseline["version"] == 1
    # The baseline exists solely to grandfather pre-convention dotted
    # metric names; any other rule id in it means real debt slipped in.
    assert {f["rule"] for f in baseline["findings"]} <= {"OBS003"}
    for record in baseline["findings"]:
        assert "snake_case" in record["message"]


def test_docs_catalog_covers_every_rule():
    catalog = (REPO / "docs" / "static_analysis.md").read_text()
    for lint_pass in DEFAULT_PASSES:
        for spec in lint_pass.rules:
            assert spec.rule in catalog, f"{spec.rule} missing from docs"


def test_every_pass_registers_rules_with_severities():
    seen = set()
    for lint_pass in DEFAULT_PASSES:
        assert lint_pass.name
        assert lint_pass.rules
        for spec in lint_pass.rules:
            assert spec.rule not in seen, f"duplicate rule id {spec.rule}"
            seen.add(spec.rule)
            assert isinstance(spec.severity, Severity)
    assert len(seen) >= 6


def test_no_tracked_bytecode():
    """No ``__pycache__``/``.pyc`` artifacts may be tracked by git."""
    tracked = subprocess.run(
        ["git", "ls-files"], cwd=REPO, capture_output=True, text=True,
        check=True).stdout.splitlines()
    offenders = [f for f in tracked
                 if f.endswith(".pyc") or "__pycache__" in f]
    assert offenders == []


def test_pycache_under_src_is_gitignored():
    """``.gitignore`` must keep future bytecode out, not just the index."""
    for probe in ("src/repro/__pycache__/mod.cpython-312.pyc",
                  "src/repro/engine/__pycache__/kernels.cpython-312.pyc",
                  "tests/__pycache__/test_x.cpython-312.pyc"):
        result = subprocess.run(["git", "check-ignore", "-q", probe],
                                cwd=REPO, capture_output=True)
        assert result.returncode == 0, f"{probe} is not ignored"
