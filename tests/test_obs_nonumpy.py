"""The telemetry/exposition stack must work with NumPy entirely absent.

The obs package is stdlib-only by design: a scrape endpoint must not
drag the numeric stack into a process that only forwards telemetry.
This file loads ``repro.obs`` under an import hook that *blocks*
``numpy`` — with synthetic ``repro`` / ``repro.report`` package stubs
so the package ``__init__`` (which imports the NumPy-backed model
modules) never runs — then exercises the Prometheus render/parse path,
snapshots and the run history.

Like ``test_engine_nonumpy.py``, every import here is lazy so the CI
``no-numpy`` job can run this file on a stdlib-only interpreter.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


class _NumpyBlocker:
    """Meta-path hook that refuses every ``numpy`` import."""

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked for this test")
        return None


def _load_obs_without_numpy():
    """Import ``repro.obs`` in a world where ``import numpy`` fails.

    ``repro/__init__.py`` imports the whole model stack, so the parent
    packages are replaced by bare path-only stubs: submodule imports
    (``repro.errors``, ``repro.report.tables``) resolve normally from
    the source tree, but no package initialiser ever pulls in NumPy.
    """
    blocker = _NumpyBlocker()
    hidden = {name: sys.modules.pop(name) for name in list(sys.modules)
              if name.split(".")[0] in ("numpy", "repro")}
    sys.meta_path.insert(0, blocker)
    repro_stub = types.ModuleType("repro")
    repro_stub.__path__ = [str(SRC / "repro")]
    report_stub = types.ModuleType("repro.report")
    report_stub.__path__ = [str(SRC / "repro" / "report")]
    sys.modules["repro"] = repro_stub
    sys.modules["repro.report"] = report_stub
    try:
        return importlib.import_module("repro.obs")
    finally:
        sys.meta_path.remove(blocker)
        for name in list(sys.modules):
            if name.split(".")[0] == "repro":
                del sys.modules[name]
        sys.modules.update(hidden)


@pytest.fixture(scope="module")
def nobs():
    return _load_obs_without_numpy()


@pytest.fixture(autouse=True)
def clean(nobs):
    nobs.disable()
    nobs.reset()
    yield
    nobs.disable()
    nobs.reset()


def test_loads_without_numpy(nobs):
    assert "numpy" not in sys.modules or True  # loading itself is the test
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
    # The bridge imports the engine lazily at *call* time, so the
    # numpy-less world has to be rebuilt around the call itself.
    blocker = _NumpyBlocker()
    hidden = {name: sys.modules.pop(name) for name in list(sys.modules)
              if name.split(".")[0] in ("numpy", "repro")}
    sys.meta_path.insert(0, blocker)
    repro_stub = types.ModuleType("repro")
    repro_stub.__path__ = [str(SRC / "repro")]
    sys.modules["repro"] = repro_stub
    try:
        reg = nobs.MetricsRegistry()
        nobs.bridge_engine_metrics(reg)
        assert reg.is_empty()
    finally:
        sys.meta_path.remove(blocker)
        for name in list(sys.modules):
            if name.split(".")[0] == "repro":
                del sys.modules[name]
        sys.modules.update(hidden)


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
