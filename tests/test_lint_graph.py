"""Unit tests for the call-graph/dataflow layer (``repro.lint.graph``).

Each test builds a tiny synthetic package on disk, parses it with the
real project loader, and asserts on the symbol tables, per-function
effect summaries, call-edge resolution, and transitive traversals the
PURE/CONC passes are built on.
"""

from __future__ import annotations

import textwrap

from repro.lint import build_call_graph, load_project


def make_graph(tmp_path, files):
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return build_call_graph(load_project(root))


# -- symbol tables -------------------------------------------------------

def test_symbol_tables_register_functions_classes_data(tmp_path):
    graph = make_graph(tmp_path, {"core.py": """
        CACHE = {}

        def helper(x):
            return x

        class Model:
            rate: float

            def run(self):
                return self.rate
    """})
    info = graph.modules["core"]
    assert info.functions == {"helper": "core.helper"}
    assert "Model" in info.classes
    assert graph.classes["core.Model"].methods["run"] == "core.Model.run"
    assert graph.classes["core.Model"].fields == {"rate": None}
    assert info.data["CACHE"].mutable is True
    assert "core.helper" in graph.functions
    assert "core.Model.run" in graph.functions


def test_data_classification(tmp_path):
    graph = make_graph(tmp_path, {"core.py": """
        MUT_DICT = {"a": 1}
        MUT_LIST = [1, 2]
        IMM_FROZEN = frozenset({1})
        IMM_PAIRS = (("a", 1), ("b", 2))
        MUT_TUPLE = (1, [2])
        REBOUND = 0

        class Model:
            def __init__(self):
                self.v = 0

        INSTANCE = Model()

        def rebind():
            global REBOUND
            REBOUND = 1
    """})
    data = graph.modules["core"].data
    assert data["MUT_DICT"].mutable and data["MUT_LIST"].mutable
    assert not data["IMM_FROZEN"].mutable
    assert not data["IMM_PAIRS"].mutable
    assert data["MUT_TUPLE"].mutable
    assert data["INSTANCE"].mutable
    assert data["INSTANCE"].value_class == "core.Model"
    # Rebinding via ``global`` anywhere makes the binding mutable state.
    assert data["REBOUND"].mutable
    assert graph.data_binding("core.MUT_DICT") is data["MUT_DICT"]
    assert graph.data_binding("nope.MISSING") is None


# -- effect summaries ----------------------------------------------------

def test_effect_kinds(tmp_path):
    graph = make_graph(tmp_path, {"fx.py": """
        import time

        STATE = {"n": 0}

        def rebind():
            global STATE
            STATE = {}

        def poke():
            STATE["n"] = 1

        def shove():
            STATE.update(n=2)

        def now():
            return time.time()

        def mutate(items):
            items.append(1)

        class Box:
            def __init__(self):
                self.v = 0

            def scribble(self):
                self.v = 1
    """})
    def effects(qname):
        return {(e.kind, e.detail) for e in graph.functions[qname].effects}

    assert ("global-write", "fx.STATE") in effects("fx.rebind")
    assert ("global-write", "fx.STATE") in effects("fx.poke")
    assert ("global-write", "fx.STATE") in effects("fx.shove")
    assert ("impure-call", "time.time") in effects("fx.now")
    assert ("param-mutation", "items.append") in effects("fx.mutate")
    # ``self`` assignment in __init__ is construction, not mutation.
    assert effects("fx.Box.__init__") == set()
    assert ("param-mutation", "self.v") in effects("fx.Box.scribble")


def test_instrumentation_calls_are_exempt(tmp_path):
    graph = make_graph(tmp_path, {"fx.py": """
        REGISTRY = {}

        def hot(metrics):
            metrics.inc("calls")
            metrics.observe("latency", 1.0)
            return 1
    """})
    summary = graph.functions["fx.hot"]
    assert summary.effects == ()
    assert summary.calls == ()


def test_data_reads_recorded(tmp_path):
    graph = make_graph(tmp_path, {"fx.py": """
        TABLE = {"k": 1}

        def read():
            return TABLE["k"]
    """})
    summary = graph.functions["fx.read"]
    assert [dotted for dotted, _ in summary.data_reads] == ["fx.TABLE"]


# -- call-edge resolution ------------------------------------------------

def test_call_resolution_forms(tmp_path):
    graph = make_graph(tmp_path, {"models.py": """
        class Gauge:
            limit: float

            def read(self):
                return self.limit

        class Meter:
            gauge: Gauge

            def sample(self):
                return self.gauge.read()

            def local_alias(self):
                g = self.gauge
                return g.read()

        class Box:
            def __init__(self):
                self.v = 0

        def make():
            return Box()

        def apply(run):
            return run(make)

        class Ctx:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        def use_ctx():
            with Ctx():
                return 1
    """})
    def callees(qname):
        return {edge.callee for edge in graph.functions[qname].calls}

    # Typed dataclass-field chain and local type propagation.
    assert "models.Gauge.read" in callees("models.Meter.sample")
    assert "models.Gauge.read" in callees("models.Meter.local_alias")
    # Instantiation resolves to __init__.
    assert "models.Box.__init__" in callees("models.make")
    # Address-taken reference: a function passed as an argument.
    assert "models.make" in callees("models.apply")
    # ``with Cls():`` reaches __enter__/__exit__.
    assert {"models.Ctx.__enter__", "models.Ctx.__exit__"} <= callees(
        "models.use_ctx")


def test_cached_property_access_is_an_edge(tmp_path):
    graph = make_graph(tmp_path, {"lazy.py": """
        from functools import cached_property

        class Lazy:
            @cached_property
            def params(self):
                return {}

            def use(self):
                return self.params
    """})
    callees = {e.callee for e in graph.functions["lazy.Lazy.use"].calls}
    assert "lazy.Lazy.params" in callees
    assert "cached_property" in graph.functions["lazy.Lazy.params"].decorators


def test_relative_import_and_reexport_chain(tmp_path):
    graph = make_graph(tmp_path, {
        "util/__init__.py": "from .impl import helper\n",
        "util/impl.py": "def helper(x):\n    return x\n",
        "app.py": """
            from util import helper

            def go():
                return helper(1)
        """,
        "sibling.py": """
            from .util.impl import helper

            def near():
                return helper(2)
        """,
    })
    assert {e.callee for e in graph.functions["app.go"].calls} == {
        "util.impl.helper"}
    assert {e.callee for e in graph.functions["sibling.near"].calls} == {
        "util.impl.helper"}


# -- transitive traversal ------------------------------------------------

def test_transitive_effects_with_witness_chain(tmp_path):
    graph = make_graph(tmp_path, {"chain.py": """
        import time

        def a():
            return b()

        def b():
            return c()

        def c():
            return time.time()
    """})
    impure = [te for te in graph.transitive_effects("chain.a")
              if te.effect.kind == "impure-call"]
    assert len(impure) == 1
    assert impure[0].effect.detail == "time.time"
    assert impure[0].chain == ("chain.a", "chain.b", "chain.c")

    stopped = graph.transitive_effects(
        "chain.a", stop=lambda s: s.name == "b")
    assert [te for te in stopped if te.effect.kind == "impure-call"] == []


def test_transitive_reads_judged_at_consumption(tmp_path):
    graph = make_graph(tmp_path, {"reads.py": """
        TABLE = {"k": 1}

        def outer():
            return inner()

        def inner():
            return TABLE["k"]
    """})
    reads = graph.transitive_reads("reads.outer")
    assert [(te.effect.detail, te.owner) for te in reads] == [
        ("reads.TABLE", "reads.inner")]
    assert graph.data_binding("reads.TABLE").mutable


# -- build cache ---------------------------------------------------------

def test_graph_cached_per_project_identity(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "m.py").write_text("def f():\n    return 1\n")
    project = load_project(root)
    assert build_call_graph(project) is build_call_graph(project)
    assert build_call_graph(load_project(root)) is not build_call_graph(project)
