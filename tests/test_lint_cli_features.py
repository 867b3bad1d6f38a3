"""CLI feature tests: SARIF output, path filtering, ``--changed-only``,
and ``--stats``."""

from __future__ import annotations

import json
import subprocess
import textwrap

from repro.lint import Finding, Severity, render_sarif
from repro.lint.cli import main

VIOLATION = (
    '"""Doc."""\n\n'
    '__all__ = ["f"]\n\n\n'
    'def f(feature_cm):\n'
    '    """Doc."""\n'
    '    return feature_cm * 1.0e4\n'
)


def make_tree(tmp_path, files):
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


# -- SARIF ---------------------------------------------------------------

def test_render_sarif_document_shape():
    finding = Finding("UNITS001", Severity.ERROR, "src/a.py", 5, "msg", "fix")
    doc = json.loads(render_sarif([finding], modules_scanned=3, baselined=1,
                                  rules={"UNITS001": "inline unit literal"}))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.lint"
    assert run["tool"]["driver"]["rules"][0]["id"] == "UNITS001"
    result = run["results"][0]
    assert result["ruleId"] == "UNITS001"
    assert result["level"] == "error"
    assert result["message"]["text"] == "msg [fix]"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"] == {"uri": "src/a.py",
                                            "uriBaseId": "%SRCROOT%"}
    assert location["region"]["startLine"] == 5
    assert result["partialFingerprints"]["reproLint/v1"] == finding.fingerprint
    assert run["properties"]["baselined"] == 1


def test_cli_sarif_format(tmp_path, capsys):
    root = make_tree(tmp_path, {"m.py": VIOLATION})
    assert main(["--root", str(root), "--format", "sarif",
                 "--no-baseline"]) == 1
    doc = json.loads(capsys.readouterr().out)
    results = doc["runs"][0]["results"]
    assert [r["ruleId"] for r in results] == ["UNITS001"]
    # The driver catalog carries the full rule set, not just hits.
    rule_ids = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
    assert {"UNITS001", "ERR001", "PURE001", "CONC002"} <= rule_ids


# -- --paths -------------------------------------------------------------

def test_cli_paths_filters_findings(tmp_path, capsys):
    root = make_tree(tmp_path, {"keep.py": VIOLATION, "drop.py": VIOLATION})
    assert main(["--root", str(root), "--no-baseline",
                 "--paths", "keep.py"]) == 1
    out = capsys.readouterr().out
    assert "keep.py" in out and "drop.py" not in out
    # A filter matching nothing leaves a clean (exit 0) report.
    assert main(["--root", str(root), "--no-baseline",
                 "--paths", "absent.py"]) == 0
    capsys.readouterr()


def test_cli_paths_directory_prefix_and_glob(tmp_path, capsys):
    root = make_tree(tmp_path, {"sub/a.py": VIOLATION, "b.py": VIOLATION})
    assert main(["--root", str(root), "--no-baseline",
                 "--paths", "sub/"]) == 1
    out = capsys.readouterr().out
    assert "sub/a.py" in out and "b.py" not in out
    assert main(["--root", str(root), "--no-baseline",
                 "--paths", "*.py"]) == 1
    capsys.readouterr()


# -- --changed-only ------------------------------------------------------

def _git(repo, *args):
    subprocess.run(["git", "-c", "user.email=t@example.com",
                    "-c", "user.name=t", *args],
                   cwd=repo, check=True, capture_output=True)


def test_cli_changed_only_reports_changed_and_untracked(tmp_path, capsys):
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pyproject.toml").write_text('[project]\nname = "x"\n')
    (repo / "pkg" / "stale.py").write_text(VIOLATION)
    (repo / "pkg" / "touched.py").write_text(VIOLATION)
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "seed")
    (repo / "pkg" / "touched.py").write_text(VIOLATION + "\n# edited\n")
    (repo / "pkg" / "fresh.py").write_text(VIOLATION)

    assert main(["--root", str(repo / "pkg"), "--no-baseline",
                 "--changed-only"]) == 1
    out = capsys.readouterr().out
    assert "pkg/touched.py" in out
    assert "pkg/fresh.py" in out  # untracked files count as changed
    assert "pkg/stale.py" not in out


def test_cli_changed_only_without_git_repo_exits_2(tmp_path, capsys):
    root = make_tree(tmp_path, {"m.py": VIOLATION})
    (tmp_path / "pyproject.toml").write_text('[project]\nname = "x"\n')
    assert main(["--root", str(root), "--no-baseline",
                 "--changed-only"]) == 2
    assert "--changed-only" in capsys.readouterr().err


# -- --stats -------------------------------------------------------------

def test_cli_stats_prints_per_pass_timing(tmp_path, capsys):
    root = make_tree(tmp_path, {"m.py": '"""Doc."""\n\n__all__ = []\n'})
    assert main(["--root", str(root), "--no-baseline", "--stats"]) == 0
    captured = capsys.readouterr()
    for name in ("units", "kernel-purity", "concurrency", "total"):
        assert name in captured.err
    assert "seconds" in captured.err
    assert "seconds" not in captured.out  # the report stream stays parseable
