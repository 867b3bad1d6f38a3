"""What a fresh process imports for a job: counted, never timed.

Package initialisers resolve their exports on first use, so a process
pays only for the modules its work touches. Each case runs in a new
interpreter (the test process has long since imported everything) and
checks which modules are in ``sys.modules`` afterwards.

Every import here is lazy and the NumPy-dependent cases skip without
NumPy, so the CI ``no-numpy`` job runs this file too. The cases that
run under :data:`BLOCK_NUMPY` show that pricing a point, parsing a
wire request and serving ``/evaluate`` need no NumPy at all.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: A meta-path hook refusing ``numpy``, installed before anything else.
BLOCK_NUMPY = """
import sys

class _NumpyBlocker:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, _NumpyBlocker())
"""

needs_numpy = pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                                 reason="NumPy is not installed")


def _loaded_after(code: str) -> set[str]:
    """The module names loaded once ``code`` ran in a fresh interpreter."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _present(loaded: set[str], names) -> list[str]:
    """Which of ``names`` (or any of their submodules) were loaded."""
    return sorted(m for m in loaded for name in names
                  if m == name or m.startswith(name + "."))


def test_pricing_a_design_loads_no_tooling():
    loaded = _loaded_after(
        "from repro.api import Scenario\n"
        "Scenario(n_transistors=1e7, feature_um=0.18).evaluate()\n")
    assert "repro.engine.points" in loaded  # the evaluation really ran
    assert _present(loaded, ["repro.lint", "repro.bench", "repro.layout",
                             "repro.obs.history", "http.client",
                             "asyncio"]) == []


@needs_numpy
def test_analysis_path_loads_no_wire_schemas():
    loaded = _loaded_after(
        "from repro.api import Scenario\n"
        "scenario = Scenario(n_transistors=1e7, feature_um=0.18)\n"
        "scenario.optimal_sd(); scenario.pareto(); scenario.sweep('n_wafers')\n"
        "scenario.sensitivity(parameters=('n_wafers', 'yield_fraction'))\n")
    assert "repro.optimize.sensitivity" in loaded  # the analysis really ran
    assert _present(loaded, ["repro.serve"]) == []


@needs_numpy
def test_pareto_front_hashes_nothing():
    loaded = _loaded_after(
        "from repro.api import Scenario\n"
        "Scenario(n_transistors=1e7, feature_um=0.18).pareto()\n")
    assert "repro.engine.core" in loaded  # the grid really went through it
    assert _present(loaded, ["hashlib", "repro.engine.cache"]) == []


def test_api_loads_the_wire_schemas_on_first_use():
    loaded = _loaded_after(
        "import sys\n"
        "import repro.api\n"
        "assert 'repro.serve.schemas' not in sys.modules\n"
        "from repro.api import EvaluateRequest\n"
        "from repro.serve.schemas import EvaluateRequest as wire\n"
        "assert EvaluateRequest is wire\n")
    assert "repro.serve.schemas" in loaded


def test_facade_prices_and_parses_without_numpy():
    loaded = _loaded_after(
        BLOCK_NUMPY + "import repro.api\n"
        "from repro.api import EvaluateRequest, Scenario\n"
        "result = Scenario(n_transistors=1e7, feature_um=0.18).evaluate()\n"
        "assert result.ok and result.backend == 'python'\n"
        "request = EvaluateRequest.from_json(\n"
        "    '{\"scenario\": {\"n_transistors\": 1e7, \"feature_um\": 0.18}}')\n"
        "assert request.scenarios == (result.scenario,)\n")
    assert "repro.engine.points" in loaded  # the evaluation really ran
    assert "repro.serve.schemas" in loaded
    assert _present(loaded, ["numpy", "repro.data"]) == []


def test_serve_entry_point_loads_no_tooling():
    loaded = _loaded_after("import repro.serve.__main__\n")
    assert "repro.serve.app" in loaded
    assert _present(loaded, ["repro.lint", "repro.bench",
                             "repro.obs.history"]) == []


def test_served_evaluate_loads_no_numpy():
    loaded = _loaded_after(
        BLOCK_NUMPY + "import io, json, threading, urllib.request\n"
        "from repro.serve.__main__ import main\n"
        "out, ready, stop = io.StringIO(), threading.Event(), threading.Event()\n"
        "real, sys.stdout = sys.stdout, out\n"
        "server = threading.Thread(target=main, args=(\n"
        "    ['--port', '0', '--history='], ready, stop))\n"
        "server.start()\n"
        "assert ready.wait(60)\n"
        "url = out.getvalue().split('listening on ')[1].split()[0]\n"
        "point = {'n_transistors': 1e7, 'feature_um': 0.18}\n"
        "for body in ({'scenario': point},\n"
        "             {'scenarios': [point, {**point, 'sd': 50.0}],\n"
        "              'policy': 'mask'}):\n"
        "    request = urllib.request.Request(url + '/evaluate',\n"
        "                                     json.dumps(body).encode())\n"
        "    with urllib.request.urlopen(request, timeout=60) as reply:\n"
        "        assert reply.status == 200\n"
        "stop.set()\n"
        "server.join(60)\n"
        "sys.stdout = real\n")
    assert "repro.engine.points" in loaded  # the requests were priced
    assert _present(loaded, ["numpy"]) == []


def test_import_repro_without_numpy():
    loaded = _loaded_after(BLOCK_NUMPY + "import repro\n"
                           "import repro.obs, repro.serve.schemas\n")
    assert "repro.serve.schemas" in loaded
    assert "numpy" not in loaded
