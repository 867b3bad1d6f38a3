"""Documentation/API hygiene tests.

These guard the deliverable contract: every public symbol documented,
the API index regenerable, the repo docs present and non-trivial.
"""

import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

SUBPACKAGES = [
    "repro",
    "repro.data",
    "repro.density",
    "repro.cost",
    "repro.wafer",
    "repro.yieldmodels",
    "repro.optimize",
    "repro.roadmap",
    "repro.interconnect",
    "repro.designflow",
    "repro.layout",
    "repro.economics",
    "repro.analysis",
    "repro.obs",
    "repro.obs.perf",
    "repro.robust",
    "repro.constants",
    "repro.lint",
    "repro.bench",
    "repro.report",
]


#: Every package in the source tree, found on disk rather than listed.
PACKAGES = sorted(
    ".".join(init.parent.relative_to(REPO / "src").parts)
    for init in (REPO / "src" / "repro").rglob("__init__.py"))

#: Imports one module in a fresh interpreter and touches every export.
RESOLVE_ALL = """
import importlib, sys
module = importlib.import_module(sys.argv[1])
missing = sorted(set(module.__all__) - set(dir(module)))
assert not missing, f"dir() lacks {missing}"
for name in module.__all__:
    getattr(module, name)
"""


class TestPublicApiHygiene:
    @pytest.mark.parametrize("package", SUBPACKAGES)
    def test_package_has_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and module.__doc__.strip()

    @pytest.mark.parametrize("package", sorted(set(SUBPACKAGES) | set(PACKAGES)))
    def test_all_exports_resolve(self, package):
        # Exports load on first use, so an import error would wait until
        # then: touch every ``__all__`` name in a new interpreter, where
        # no earlier import can mask a missing one.
        result = subprocess.run(
            [sys.executable, "-c", RESOLVE_ALL, package],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, f"{package}: {result.stderr}"

    @pytest.mark.parametrize("package", SUBPACKAGES[1:])
    def test_public_symbols_documented(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if inspect.ismodule(obj) or not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if not inspect.getdoc(obj):
                undocumented.append(symbol)
        assert not undocumented, f"{package}: undocumented public symbols {undocumented}"

    @pytest.mark.parametrize("package", SUBPACKAGES[1:])
    def test_public_methods_documented(self, package):
        module = importlib.import_module(package)
        undocumented = []
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol)
            if not inspect.isclass(obj):
                continue
            for name, member in inspect.getmembers(obj, inspect.isfunction):
                if name.startswith("_") or member.__qualname__.split(".")[0] != obj.__name__:
                    continue
                if not inspect.getdoc(member):
                    undocumented.append(f"{symbol}.{name}")
        assert not undocumented, f"{package}: undocumented methods {undocumented}"


class TestRepoDocs:
    @pytest.mark.parametrize("name", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
    def test_doc_exists_and_substantial(self, name):
        path = REPO / name
        assert path.exists()
        assert len(path.read_text()) > 2000

    def test_design_doc_maps_every_experiment(self):
        text = (REPO / "DESIGN.md").read_text()
        for exp in ("fig1", "fig2", "fig3", "fig4a", "fig4b", "table_a1",
                    "abl_yieldmodel", "abl_ttm", "abl_node", "abl_scenarios"):
            assert exp in text, f"DESIGN.md missing experiment {exp}"

    def test_experiments_doc_covers_every_bench(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for bench in sorted((REPO / "benchmarks").glob("bench_*.py")):
            assert bench.name in text, f"EXPERIMENTS.md missing {bench.name}"

    def test_api_index_regenerates(self, tmp_path):
        result = subprocess.run(
            [sys.executable, str(REPO / "tools" / "gen_api_docs.py")],
            capture_output=True, text=True, timeout=120, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        api = (REPO / "docs" / "API.md").read_text()
        assert "repro.cost" in api
        assert "repro.economics" in api
        # Spot-check that headline symbols made it in.
        for symbol in ("transistor_cost", "DesignCostModel", "extract_patterns",
                       "optimal_sd", "constant_cost_sd"):
            assert f"`{symbol}`" in api
