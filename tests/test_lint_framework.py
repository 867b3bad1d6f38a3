"""Framework-level tests for ``repro.lint``.

Covers the cross-cutting machinery the passes get for free: suppression
comments, severity overrides, select/ignore filters, config parsing
(both TOML paths), the baseline round-trip, the reporters, and the CLI
exit-code contract.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.errors import LintError
from repro.lint import (
    Finding,
    LintConfig,
    PassManager,
    Severity,
    apply_baseline,
    load_baseline,
    load_config,
    load_project,
    render_json,
    render_text,
    run_lint,
    write_baseline,
)
from repro.lint.cli import main
from repro.lint.config import _parse_toml_fallback
from repro.lint.passes import UnitsPass


def make_tree(tmp_path, files):
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


UNITS_ONLY = (UnitsPass(),)

VIOLATION = (
    '"""Doc."""\n\n'
    '__all__ = ["f"]\n\n\n'
    'def f(feature_cm):\n'
    '    """Doc."""\n'
    '    return feature_cm * 1.0e4\n'
)

WARNING_ONLY = (
    '"""Doc."""\n\n'
    '__all__ = ["f"]\n\n\n'
    'def f(feature_nm):\n'
    '    """Doc."""\n'
    '    return feature_nm / 1.0e3\n'
)


# -- suppression comments ------------------------------------------------

def test_suppression_same_line(tmp_path):
    root = make_tree(tmp_path, {
        "m.py": "def f(x):\n"
                "    return x * 1.0e4  # lint: disable=UNITS001\n"})
    result = run_lint(root, config=LintConfig(), passes=UNITS_ONLY)
    assert result.findings == ()
    assert result.suppressed == 1


def test_suppression_own_line_above(tmp_path):
    root = make_tree(tmp_path, {
        "m.py": "def f(x):\n"
                "    # lint: disable=UNITS001\n"
                "    return x * 1.0e4\n"})
    result = run_lint(root, config=LintConfig(), passes=UNITS_ONLY)
    assert result.findings == ()
    assert result.suppressed == 1


def test_suppression_file_wide_and_wrong_rule(tmp_path):
    root = make_tree(tmp_path, {
        "whole.py": "# lint: disable-file=UNITS001\n"
                    "A = 2.0 * 1.0e4\nB = 3.0 * 1.0e7\n",
        "wrong.py": "A = 2.0 * 1.0e4  # lint: disable=ERR001\n"})
    result = run_lint(root, config=LintConfig(), passes=UNITS_ONLY)
    assert [f.path.rsplit("/", 1)[-1] for f in result.findings] == ["wrong.py"]
    assert result.suppressed == 2


# -- severity overrides, select/ignore -----------------------------------

def test_severity_override_changes_reported_severity(tmp_path):
    root = make_tree(tmp_path, {"m.py": WARNING_ONLY})
    config = LintConfig(severity_overrides={"UNITS002": Severity.ERROR})
    result = run_lint(root, config=config, passes=UNITS_ONLY)
    assert result.findings[0].severity is Severity.ERROR


def test_select_and_ignore_filters(tmp_path):
    root = make_tree(tmp_path, {"m.py": VIOLATION})
    assert run_lint(root, config=LintConfig(ignore=("UNITS001",)),
                    passes=UNITS_ONLY).findings == ()
    only_err = run_lint(root, select=("ERR001",))
    assert only_err.findings == ()
    with pytest.raises(LintError, match="unknown rule"):
        run_lint(root, select=("NOPE999",))


def test_exclude_patterns_drop_by_path(tmp_path):
    root = make_tree(tmp_path, {"legacy/old.py": VIOLATION, "new.py": VIOLATION})
    config = LintConfig(excludes={"UNITS001": ("legacy/*",)})
    result = run_lint(root, config=config, passes=UNITS_ONLY)
    assert [f.path.rsplit("/", 1)[-1] for f in result.findings] == ["new.py"]
    assert result.excluded == 1


# -- findings ------------------------------------------------------------

def test_fingerprint_is_line_independent():
    a = Finding("UNITS001", Severity.ERROR, "a.py", 10, "msg", "fix")
    b = Finding("UNITS001", Severity.ERROR, "a.py", 99, "msg", "other fix")
    assert a.fingerprint == b.fingerprint
    assert a.to_dict() == Finding.from_dict(a.to_dict()).to_dict()


def test_severity_parse_rejects_unknown():
    assert Severity.parse("Error") is Severity.ERROR
    with pytest.raises(LintError):
        Severity.parse("fatal")


# -- baseline ------------------------------------------------------------

def test_baseline_round_trip_with_multiplicity(tmp_path):
    f1 = Finding("UNITS001", Severity.ERROR, "a.py", 5, "msg", "fix")
    f2 = Finding("UNITS001", Severity.ERROR, "a.py", 9, "msg", "fix")
    base_path = tmp_path / "baseline.json"
    write_baseline(base_path, [f1])
    baseline = load_baseline(base_path)
    fresh, accepted = apply_baseline([f1, f2], baseline)
    assert len(accepted) == 1 and len(fresh) == 1
    fresh2, accepted2 = apply_baseline([f1], baseline)
    assert fresh2 == [] and accepted2 == [f1]


def test_baseline_rejects_garbage(tmp_path):
    bad = tmp_path / "b.json"
    bad.write_text("not json")
    with pytest.raises(LintError):
        load_baseline(bad)
    bad.write_text('{"version": 99, "findings": []}')
    with pytest.raises(LintError, match="version"):
        load_baseline(bad)
    bad.write_text('{"no_findings": 1}')
    with pytest.raises(LintError, match="findings"):
        load_baseline(bad)


# -- config --------------------------------------------------------------

PYPROJECT = """
[project]
name = "x"

[tool.repro-lint]
ignore = ["UNITS002"]
entry-packages = ["optimize/"]

[tool.repro-lint.severity]
CONST001 = "warning"

[tool.repro-lint.exclude]
UNITS001 = ["legacy/*"]
"""


def test_load_config_reads_table(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(PYPROJECT)
    config = load_config(pyproject)
    assert config.ignore == ("UNITS002",)
    assert config.entry_packages == ("optimize/",)
    assert config.severity_overrides == {"CONST001": Severity.WARNING}
    assert config.excludes == {"UNITS001": ("legacy/*",)}
    assert load_config(tmp_path / "absent.toml") == LintConfig()


def test_load_config_rejects_unknown_key(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text("[tool.repro-lint]\ntypo-key = 1\n")
    with pytest.raises(LintError, match="typo-key"):
        load_config(pyproject)


def test_toml_fallback_parses_lint_subset():
    data = _parse_toml_fallback(PYPROJECT)
    table = data["tool"]["repro-lint"]
    assert table["ignore"] == ["UNITS002"]
    assert table["severity"]["CONST001"] == "warning"
    assert table["exclude"]["UNITS001"] == ["legacy/*"]
    assert data["project"]["name"] == "x"


# -- reporters -----------------------------------------------------------

def test_reporters_text_and_json():
    finding = Finding("UNITS001", Severity.ERROR, "a.py", 5, "msg", "fix")
    text = render_text([finding], modules_scanned=3, suppressed=1)
    assert "a.py:5: error: UNITS001 msg" in text
    assert "1 error(s)" in text and "3 module(s)" in text
    doc = json.loads(render_json([finding], modules_scanned=3, baselined=2))
    assert doc["tool"] == "repro.lint"
    assert doc["summary"]["errors"] == 1
    assert doc["summary"]["baselined"] == 2
    assert doc["findings"][0]["rule"] == "UNITS001"
    clean = render_text([], modules_scanned=3)
    assert "clean" in clean


# -- CLI exit codes ------------------------------------------------------

def test_cli_exit_codes(tmp_path, capsys):
    dirty = make_tree(tmp_path, {"m.py": VIOLATION})
    assert main(["--root", str(dirty), "--no-baseline"]) == 1
    capsys.readouterr()
    clean = make_tree(tmp_path / "c", {"m.py": '"""Doc."""\n\n__all__ = []\n'})
    assert main(["--root", str(clean), "--no-baseline"]) == 0
    capsys.readouterr()
    assert main(["--root", str(tmp_path / "nope"), "--no-baseline"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["--root", str(dirty), "--select", "NOPE1", "--no-baseline"]) == 2
    capsys.readouterr()


def test_cli_strict_promotes_warnings(tmp_path, capsys):
    root = make_tree(tmp_path, {"m.py": WARNING_ONLY})
    assert main(["--root", str(root), "--no-baseline"]) == 0
    capsys.readouterr()
    assert main(["--root", str(root), "--no-baseline", "--strict"]) == 1
    capsys.readouterr()


def test_cli_json_format(tmp_path, capsys):
    root = make_tree(tmp_path, {"m.py": VIOLATION})
    assert main(["--root", str(root), "--format", "json", "--no-baseline"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["errors"] == 1
    assert doc["findings"][0]["rule"] == "UNITS001"


def test_cli_write_baseline_then_clean(tmp_path, capsys):
    root = make_tree(tmp_path, {"m.py": VIOLATION})
    base = tmp_path / "baseline.json"
    assert main(["--root", str(root), "--write-baseline",
                 "--baseline", str(base)]) == 0
    capsys.readouterr()
    assert main(["--root", str(root), "--baseline", str(base)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("UNITS001", "ERR001", "POL001", "CONST001", "API001",
                 "OBS001", "PURE001", "CONC002"):
        assert rule in out


# -- suppression × baseline edge cases -----------------------------------

def test_suppressed_finding_also_in_baseline_not_double_counted(tmp_path,
                                                                capsys):
    # The suppression comment removes the finding before the baseline is
    # consulted, so the baseline entry just sits stale — the report must
    # show 1 suppressed and 0 baselined.
    suppressed_src = VIOLATION.replace(
        "return feature_cm * 1.0e4",
        "return feature_cm * 1.0e4  # lint: disable=UNITS001")
    root = make_tree(tmp_path, {"m.py": suppressed_src})
    base = tmp_path / "baseline.json"
    write_baseline(base, [Finding("UNITS001", Severity.ERROR, "m.py", 8,
                                  "unit-conversion literal 1e4 inline",
                                  "use repro.units")])
    assert main(["--root", str(root), "--baseline", str(base)]) == 0
    out = capsys.readouterr().out
    assert "1 suppressed" in out
    assert "baselined" not in out


def test_stale_baseline_entry_is_ignored(tmp_path, capsys):
    # A baseline entry whose finding was fixed must not fail the run or
    # resurrect anything: it is simply never matched.
    root = make_tree(tmp_path, {"m.py": '"""Doc."""\n\n__all__ = []\n'})
    base = tmp_path / "baseline.json"
    write_baseline(base, [Finding("UNITS001", Severity.ERROR, "m.py", 8,
                                  "long gone", "fix")])
    assert main(["--root", str(root), "--baseline", str(base)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert "baselined" not in out


def test_unknown_rule_in_disable_comment_is_inert(tmp_path):
    # Disabling a rule id that does not exist neither crashes nor
    # suppresses the real finding on that line.
    src = VIOLATION.replace(
        "return feature_cm * 1.0e4",
        "return feature_cm * 1.0e4  # lint: disable=NOPE999")
    root = make_tree(tmp_path, {"m.py": src})
    result = run_lint(root, config=LintConfig(), passes=UNITS_ONLY)
    assert [f.rule for f in result.findings] == ["UNITS001"]
    assert result.suppressed == 0
