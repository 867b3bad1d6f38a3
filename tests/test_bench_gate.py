"""Verdict logic and end-to-end exit codes of the perf-regression gate.

``compare_reports`` gets synthetic-report golden tests for every
verdict; the CLI gets a tmp-path bench suite whose speed is controlled
through an environment variable, so a 10x fault-injected slowdown must
flip the exit code from 0 to 1. ``--trace`` must leave its three span
artifacts next to the report.
"""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.bench import (
    IMPROVEMENT,
    MISSING,
    NEW,
    REGRESSION,
    WITHIN_NOISE,
    compare_reports,
    make_report,
)
from repro.bench.cli import main
from repro.errors import DomainError

ENV = {"git_sha": "test", "python": "3.x", "platform": "test"}


def report(**medians) -> dict:
    """A report whose benches all have tiny MAD (noise band = min_rel)."""
    benches = {
        name: {"min": median * 0.98, "median": median,
               "mad": median * 0.001, "repeats": 5}
        for name, median in medians.items()
    }
    return make_report(benches, repeats=5, warmup=1, environment=ENV,
                       generated="2026-08-06T00:00:00Z")


# -- verdicts ----------------------------------------------------------

def test_verdict_regression_improvement_within_noise():
    base = report(slow=0.100, fast=0.100, same=0.100)
    cur = report(slow=0.150, fast=0.050, same=0.105)
    comparison = compare_reports(base, cur)
    status = {v.name: v.status for v in comparison.verdicts}
    assert status == {"slow": REGRESSION, "fast": IMPROVEMENT,
                      "same": WITHIN_NOISE}
    assert not comparison.ok
    assert [v.name for v in comparison.regressions] == ["slow"]
    assert comparison.counts()[REGRESSION] == 1


def test_verdict_tenfold_regression_is_unambiguous():
    comparison = compare_reports(report(bench=0.010), report(bench=0.100))
    (verdict,) = comparison.verdicts
    assert verdict.status == REGRESSION
    assert verdict.ratio == pytest.approx(10.0)
    assert "10.00x" in verdict.describe()


def test_noisy_bench_widens_its_band():
    # A 40% swing with a huge MAD is noise, not regression.
    base = report(jittery=0.100)
    base["benches"]["jittery"]["mad"] = 0.020  # 3*1.4826*0.2 ≈ ±59%
    cur = report(jittery=0.140)
    (verdict,) = compare_reports(base, cur).verdicts
    assert verdict.status == WITHIN_NOISE
    assert verdict.threshold > 0.5


def test_new_and_missing_never_fail_the_gate():
    comparison = compare_reports(report(old=0.1), report(fresh=0.1))
    status = {v.name: v.status for v in comparison.verdicts}
    assert status == {"old": MISSING, "fresh": NEW}
    assert comparison.ok
    assert math.isnan(comparison.verdicts[0].ratio)
    text = comparison.format()
    assert "gate: ok" in text and "missing" in text and "new" in text


def test_compare_parameters_validated():
    with pytest.raises(DomainError):
        compare_reports(report(a=0.1), report(a=0.1), min_rel=-0.1)
    with pytest.raises(DomainError):
        compare_reports(report(a=0.1), report(a=0.1), mad_scale=0.0)


def test_format_marks_failures():
    text = compare_reports(report(bench=0.01), report(bench=0.1)).format()
    assert "gate: FAIL" in text
    assert "regression" in text


# -- CLI end-to-end ----------------------------------------------------

BENCH_SOURCE = '''
"""Synthetic bench whose cost is set by REPRO_TEST_BENCH_COST_MS."""

import os
import time


def regenerate_sleepy():
    time.sleep(float(os.environ.get("REPRO_TEST_BENCH_COST_MS", "2")) / 1e3)
    return 1
'''


@pytest.fixture()
def bench_dir(tmp_path):
    (tmp_path / "bench_sleepy.py").write_text(BENCH_SOURCE)
    return tmp_path


def run_cli(bench_dir, *extra: str) -> int:
    return main(["--bench-dir", str(bench_dir), "--repeats", "3",
                 "--warmup", "0", "--quiet", *extra])


def test_cli_first_run_writes_baseline_then_compares_clean(
        bench_dir, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_TEST_BENCH_COST_MS", "5")
    assert run_cli(bench_dir) == 0
    baseline = bench_dir / "baseline.json"
    assert baseline.exists()
    assert list((bench_dir / "output").glob("BENCH_*.json"))

    # Same cost again: the gate passes.
    assert run_cli(bench_dir, "--compare", str(baseline)) == 0
    out = capsys.readouterr().out
    assert "gate: ok" in out


def test_cli_detects_injected_tenfold_slowdown(bench_dir, monkeypatch,
                                               capsys):
    monkeypatch.setenv("REPRO_TEST_BENCH_COST_MS", "5")
    assert run_cli(bench_dir) == 0

    # Fault injection: the same bench now takes 10x longer.
    monkeypatch.setenv("REPRO_TEST_BENCH_COST_MS", "50")
    code = run_cli(bench_dir, "--compare", str(bench_dir / "baseline.json"))
    assert code == 1
    captured = capsys.readouterr()
    assert "gate: FAIL" in captured.out
    assert "regression: sleepy" in captured.err


def test_cli_trace_writes_the_span_artifacts(bench_dir, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_BENCH_COST_MS", "1")
    monkeypatch.delenv("REPRO_HISTORY", raising=False)
    out = bench_dir / "out"
    try:
        assert run_cli(bench_dir, "--trace", "--output-dir", str(out)) == 0
    finally:
        obs.reset()
    spans = [r for r in obs.read_jsonl(out / "bench_trace.jsonl")
             if r["type"] == "span"]
    assert [sp["name"] for sp in spans] == ["bench.sleepy"]
    assert (out / "bench_flame.txt").read_text().startswith("bench.sleepy ")
    hot = (out / "hot_spans.txt").read_text().splitlines()
    assert hot[0] == "hot spans (top 1 by self time)"
    assert hot[-1].split("|")[0].strip() == "bench.sleepy"


def test_cli_update_baseline_accepts_new_cost(bench_dir, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_BENCH_COST_MS", "5")
    assert run_cli(bench_dir) == 0
    monkeypatch.setenv("REPRO_TEST_BENCH_COST_MS", "50")
    assert run_cli(bench_dir, "--update-baseline") == 0
    # The rebaselined cost is now the reference: same speed passes.
    assert run_cli(bench_dir, "--compare",
                   str(bench_dir / "baseline.json")) == 0


def test_cli_errors_exit_2(tmp_path, capsys):
    assert main(["--bench-dir", str(tmp_path / "nowhere"), "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err

    (tmp_path / "bench_ok.py").write_text(
        "def regenerate_ok():\n    return 1\n")
    bad_baseline = tmp_path / "corrupt.json"
    bad_baseline.write_text("{not json")
    assert main(["--bench-dir", str(tmp_path), "--repeats", "1",
                 "--warmup", "0", "--quiet",
                 "--compare", str(bad_baseline)]) == 2
    assert "error:" in capsys.readouterr().err
