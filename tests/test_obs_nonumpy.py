"""The telemetry/exposition stack must work with NumPy entirely absent.

The obs package is stdlib-only by design: a scrape endpoint must not
drag the numeric stack into a process that only forwards telemetry.
This file imports the real ``repro.obs`` under an import hook that
*blocks* ``numpy`` (package initialisers load their submodules on first
use, so nothing pulls the model stack in) and keeps that world for the
whole module while it exercises the Prometheus render/parse path,
snapshots and the run history.

Like ``test_engine_nonumpy.py``, every import here is lazy so the CI
``no-numpy`` job can run this file on a stdlib-only interpreter.
"""

import importlib
import sys

import pytest


class _NumpyBlocker:
    """Meta-path hook that refuses every ``numpy`` import."""

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked for this test")
        return None


@pytest.fixture(scope="module")
def nobs():
    """``repro.obs`` imported, and used, in a world where ``import numpy`` fails.

    The world spans every test here: the package resolves its exports
    on first use, so each test's first touch of a name imports the
    submodule with NumPy still blocked.
    """
    blocker = _NumpyBlocker()
    hidden = {name: sys.modules.pop(name) for name in list(sys.modules)
              if name.split(".")[0] in ("numpy", "repro")}
    sys.meta_path.insert(0, blocker)
    try:
        yield importlib.import_module("repro.obs")
    finally:
        sys.meta_path.remove(blocker)
        for name in list(sys.modules):
            if name.split(".")[0] == "repro":
                del sys.modules[name]
        sys.modules.update(hidden)


@pytest.fixture(autouse=True)
def clean(nobs):
    nobs.disable()
    nobs.reset()
    yield
    nobs.disable()
    nobs.reset()


def test_loads_without_numpy(nobs):
    assert "numpy" not in sys.modules
    assert callable(nobs.bridge_engine_metrics)
    assert callable(nobs.render_prometheus)


def test_render_parse_round_trip(nobs):
    nobs.enable()
    nobs.inc("scrapes_total", 2.0, labels={"job": "nonumpy"})
    nobs.observe("payload_bytes", 512.0)
    text = nobs.render_prometheus()
    samples = {s["name"]: s for s in nobs.parse_prometheus(text)}
    assert samples["scrapes_total"]["value"] == 2.0
    assert samples["scrapes_total"]["labels"] == {"job": "nonumpy"}
    assert samples["payload_bytes_count"]["value"] == 1.0


def test_bridge_is_a_noop_without_the_engine(nobs):
    # The engine imports NumPy, which is blocked: bridging must quietly
    # skip rather than fail a scrape on a telemetry-only interpreter.
    reg = nobs.MetricsRegistry()
    nobs.bridge_engine_metrics(reg)
    assert reg.is_empty()


def test_snapshot_bundle_without_numpy(nobs, tmp_path):
    nobs.enable()
    with nobs.span("nonumpy.root"):
        nobs.inc("bundle_total")
    nobs.disable()
    paths = nobs.write_snapshot(tmp_path / "bundle")
    assert all(p.exists() for p in paths.values())
    assert "bundle_total 1" in paths["metrics"].read_text()


def test_run_history_store_without_numpy(nobs, tmp_path):
    # The persistence substrate is sqlite3 + json: record, query, drift,
    # and dashboard rendering must all run on a stdlib-only interpreter.
    with nobs.HistoryStore(tmp_path / "runs.sqlite") as store:
        for i in range(6):
            reg = nobs.MetricsRegistry()
            reg.counter("scrapes_total").inc(10 if i < 5 else 100)
            store.record_run("nonumpy", wall_time_s=0.5, backend="python",
                             registry=reg)
        series = store.series("scrapes_total")
        assert [p.value for p in series][-1] == 100.0
        report = nobs.detect_drift(store, min_runs=5)
        assert {v.key for v in report.flagged} >= {"scrapes_total"}
        html = nobs.render_html_dashboard(store, drift=report)
        assert "<svg" in html and 'class="drift"' in html
