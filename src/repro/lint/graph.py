"""Project-wide call graph and per-function effect summaries.

The dataflow layer underneath the PURE pass family. It is built
once per :class:`~repro.lint.project.LintProject` from the already
parsed ASTs — no re-parsing, no imports, no execution:

1. **Symbol tables** — every module's top-level functions, classes
   (with their dataclass fields and resolved field types), data
   bindings (classified mutable/immutable), and imports (including
   relative imports and re-export chains through ``__init__`` modules).
2. **Effect summaries** — each function body is walked once, recording
   writes to module-level state (``global`` rebinding, subscript or
   attribute assignment, mutator-method calls such as ``append``/
   ``update``), reads of module-level data bindings, calls into impure
   stdlib surfaces (``time``/``random``/``os.environ``/IO), attribute
   mutation of parameters, and reads of ``self`` attributes.
3. **Call edges** — calls are resolved through imports, same-class
   methods (including ``cached_property`` access via ``self.x``),
   typed dataclass-field chains (``self.model.transistor_cost`` via
   the ``model: TotalCostModel`` annotation), a one-pass local type
   propagation (``model = self.model``), class instantiation
   (``Cls()`` → ``Cls.__init__``), ``with Cls():`` (``__enter__``/
   ``__exit__``) and *address-taken* references (a function passed as
   an argument is analysed as if it were called).
4. **Transitive propagation** — :meth:`CallGraph.transitive_effects`
   walks the edges breadth-first and returns every effect reachable
   from a root, each with the call chain that witnesses it.

Calls whose terminal name is a gated instrumentation helper (``inc``,
``observe``, ``span``, ...) are exempt throughout: by contract they
never influence numeric results, so treating them as effects would
make every traced hot path "impure" and drown the signal.

The analysis is deliberately conservative-quiet: an unresolvable call
(higher-order through an unannotated parameter, dynamic dispatch)
produces no edge and no effect, so the passes built on top report only
provable violations.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field

from .project import LintModule, LintProject

__all__ = [
    "CallEdge",
    "CallGraph",
    "ClassInfo",
    "DataBinding",
    "Effect",
    "FunctionSummary",
    "ModuleInfo",
    "TransitiveEffect",
    "build_call_graph",
]

#: Gated observability helpers — calls to these names are exempt from
#: effect analysis (see module docstring).
INSTRUMENTATION_CALLS = frozenset({
    "inc", "observe", "set_gauge", "observe_duration", "span",
    "record_provenance", "attach", "counter", "gauge", "histogram",
    "sketch",
})

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "clear", "pop",
    "popitem", "remove", "discard", "setdefault", "sort", "reverse",
})

#: Builtins whose call is an observable side effect or nondeterminism.
_IMPURE_BUILTINS = frozenset({"open", "print", "input", "exec", "eval"})

#: Modules considered impure wholesale (any attribute call).
_IMPURE_MODULES = frozenset({
    "time", "random", "secrets", "uuid", "subprocess", "socket",
    "shutil", "tempfile",
})

#: Dotted prefixes considered impure (calls *and* attribute reads).
_IMPURE_PREFIXES = ("numpy.random.", "os.environ")

#: Per-module attribute names considered impure.
_IMPURE_ATTRS = {
    "os": frozenset({
        "getenv", "putenv", "unsetenv", "urandom", "getpid", "getppid",
        "getcwd", "cpu_count", "system", "popen", "remove", "unlink",
        "rename", "replace", "mkdir", "makedirs", "rmdir", "listdir",
        "_exit",
    }),
    "sys": frozenset({"exit", "stdout", "stderr", "stdin"}),
    "datetime.datetime": frozenset({"now", "utcnow", "today"}),
    "datetime.date": frozenset({"today"}),
}

#: Callables whose result is immutable (module-data classification).
_IMMUTABLE_FACTORIES = frozenset({
    "frozenset", "tuple", "float", "int", "str", "bytes", "bool",
    "complex", "compile", "namedtuple", "MappingProxyType", "TypeVar",
})

#: Methods where ``self`` attribute assignment is construction or scope
#: management, not a purity-relevant mutation.
_CONSTRUCTION_METHODS = frozenset({
    "__init__", "__post_init__", "__new__", "__set_name__",
    "__enter__", "__exit__",
})


@dataclass(frozen=True)
class Effect:
    """One side effect observed in a function body.

    ``kind`` is ``"global-write"`` (module-level state written),
    ``"impure-call"`` (nondeterministic/IO call), or
    ``"param-mutation"`` (attribute/item mutation of a parameter or of
    ``self``). ``detail`` names the target (``"engine.core._pool"``,
    ``"time.perf_counter"``, ``"self.cache"``); ``line`` is where it
    happens in the owning module.
    """

    kind: str
    detail: str
    line: int


@dataclass(frozen=True)
class CallEdge:
    """A resolved call (or address-taken reference) to ``callee``."""

    callee: str
    line: int


@dataclass
class DataBinding:
    """One module-level data binding (``NAME = <value>``).

    ``mutable`` is True when the bound value can change or be changed
    after import time: dict/list/set literals and comprehensions,
    instances of package classes, unknown constructor calls, and any
    binding some function rebinds via ``global``. Immutable bindings
    (numbers, strings, tuples of immutables, ``frozenset``/
    ``re.compile`` results, aliases) are part of the code version, so
    reading them never needs cache-token coverage. ``value_class`` is
    the package class qname when the value is ``Cls(...)``.
    """

    name: str
    line: int
    mutable: bool
    value_class: str | None = None


@dataclass
class ClassInfo:
    """Symbol-table entry for one top-level class.

    ``methods`` maps method name → function qname; ``fields`` maps
    dataclass-field name → resolved package class qname (or ``None``
    when the annotation is not a package class). ``node`` is the parsed
    ``ClassDef`` for passes that need lexical detail.
    """

    qname: str
    name: str
    module: str
    rel: str
    line: int
    methods: dict[str, str] = field(default_factory=dict)
    fields: dict[str, str | None] = field(default_factory=dict)
    node: ast.ClassDef | None = None


@dataclass
class FunctionSummary:
    """Effect summary and outgoing edges for one function or method.

    ``data_reads`` lists ``(dotted binding id, line)`` for reads of
    module-level data bindings (mutability is judged at consumption
    time via :meth:`CallGraph.data_binding`). ``self_reads`` collects
    attribute names read off ``self`` (dataclass-field coverage checks
    filter them against :attr:`ClassInfo.fields`).
    """

    qname: str
    name: str
    module: str
    rel: str
    line: int
    cls: ClassInfo | None = None
    decorators: tuple[str, ...] = ()
    effects: tuple[Effect, ...] = ()
    calls: tuple[CallEdge, ...] = ()
    data_reads: tuple[tuple[str, int], ...] = ()
    self_reads: frozenset[str] = frozenset()


@dataclass
class ModuleInfo:
    """Symbol tables for one module: functions, classes, data, imports."""

    module: LintModule
    dotted: str
    functions: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    data: dict[str, DataBinding] = field(default_factory=dict)
    imports: dict[str, tuple] = field(default_factory=dict)


@dataclass(frozen=True)
class TransitiveEffect:
    """An effect plus the call chain that reaches it from the root.

    ``chain`` runs from the root qname to ``owner`` (the function whose
    body contains the effect), inclusive.
    """

    effect: Effect
    owner: str
    chain: tuple[str, ...]


@dataclass
class CallGraph:
    """The built graph: symbol tables, summaries, and traversals."""

    modules: dict[str, ModuleInfo]
    functions: dict[str, FunctionSummary]
    classes: dict[str, ClassInfo]

    def data_binding(self, dotted: str) -> DataBinding | None:
        """Look up a module-level binding by dotted id, or ``None``."""
        module, _, name = dotted.rpartition(".")
        info = self.modules.get(module)
        if info is None and not module:
            info = self.modules.get("")
        if info is None:
            return None
        return info.data.get(name)

    def reachable(self, root: str, *, stop=None) -> dict[str, tuple[str, ...]]:
        """Qnames reachable from ``root`` mapped to a witness call chain.

        ``stop`` is an optional predicate on :class:`FunctionSummary`;
        a summary it accepts is neither expanded nor included (the root
        itself is always included). Unknown qnames simply have no
        outgoing edges.
        """
        chains: dict[str, tuple[str, ...]] = {root: (root,)}
        queue = deque([root])
        while queue:
            current = queue.popleft()
            summary = self.functions.get(current)
            if summary is None:
                continue
            if stop is not None and current != root and stop(summary):
                continue
            for edge in summary.calls:
                if edge.callee not in chains:
                    chains[edge.callee] = chains[current] + (edge.callee,)
                    queue.append(edge.callee)
        if stop is not None:
            chains = {q: c for q, c in chains.items()
                      if q == root or self.functions.get(q) is None
                      or not stop(self.functions[q])}
        return chains

    def transitive_effects(self, root: str, *, stop=None) -> list[TransitiveEffect]:
        """Every effect reachable from ``root``, with witness chains."""
        out: list[TransitiveEffect] = []
        for qname, chain in self.reachable(root, stop=stop).items():
            summary = self.functions.get(qname)
            if summary is None:
                continue
            for effect in summary.effects:
                out.append(TransitiveEffect(effect, qname, chain))
        return out

    def transitive_reads(self, root: str, *, stop=None) -> list[TransitiveEffect]:
        """Module-data reads reachable from ``root`` as ``global-read`` effects."""
        out: list[TransitiveEffect] = []
        for qname, chain in self.reachable(root, stop=stop).items():
            summary = self.functions.get(qname)
            if summary is None:
                continue
            for dotted, line in summary.data_reads:
                out.append(TransitiveEffect(
                    Effect("global-read", dotted, line), qname, chain))
        return out


@dataclass
class _Scope:
    """Name-resolution context for one function body walk."""

    mod: ModuleInfo
    cls: ClassInfo | None = None
    fn_name: str = ""
    self_name: str = ""
    params: frozenset = frozenset()
    locals: frozenset = frozenset()
    globals_declared: frozenset = frozenset()
    local_types: dict = field(default_factory=dict)


def _dotted(rel: str) -> str:
    """Package-relative dotted module name for a source path."""
    name = rel[:-3].replace("/", ".")
    if name == "__init__":
        return ""
    if name.endswith(".__init__"):
        return name[: -len(".__init__")]
    return name


def _is_package(rel: str) -> bool:
    return rel.endswith("__init__.py")


def _data_id(module: str, name: str) -> str:
    return f"{module}.{name}" if module else name


def _is_impure_call(dotted: str) -> bool:
    """Whether a resolved external call target is impure."""
    head = dotted.split(".", 1)[0]
    if head in _IMPURE_MODULES:
        return True
    if any(dotted.startswith(prefix) for prefix in _IMPURE_PREFIXES):
        return True
    parent, _, leaf = dotted.rpartition(".")
    return leaf in _IMPURE_ATTRS.get(parent, frozenset())


def _is_impure_read(dotted: str) -> bool:
    """Whether merely *reading* an external attribute is impure."""
    return any(dotted.startswith(prefix) for prefix in _IMPURE_PREFIXES)


def _parameter_names(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


def _terminal_name(expr: ast.AST) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _iter_body(fn: ast.FunctionDef):
    """Walk a function's *body* only — decorators/defaults/annotations
    of the function itself are not part of its runtime behaviour."""
    for stmt in fn.body:
        yield from ast.walk(stmt)


class _GraphBuilder:
    """Three-phase builder: symbol tables, field/data resolution, walks."""

    def __init__(self, project: LintProject):
        self.project = project
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._fn_nodes: dict[str, tuple[ast.FunctionDef, ModuleInfo, ClassInfo | None]] = {}
        self._raw_fields: dict[str, list[tuple[str, ast.AST]]] = {}
        self._raw_data: dict[str, list[tuple[str, int, ast.AST]]] = {}

    # -- phase 1: register symbols -------------------------------------

    def build(self) -> CallGraph:
        """Run all phases and return the finished :class:`CallGraph`."""
        for module in self.project.modules:
            self._register_module(module)
        for dotted, info in self.modules.items():
            self._resolve_imports(dotted, info)
        for dotted, info in self.modules.items():
            self._resolve_fields(info)
            self._classify_data(dotted, info)
        for qname, (fn, info, cls) in self._fn_nodes.items():
            self.functions[qname] = self._summarize(qname, fn, info, cls)
        self._mark_rebound_mutable()
        return CallGraph(modules=self.modules, functions=self.functions,
                         classes=self.classes)

    def _register_module(self, module: LintModule) -> None:
        dotted = _dotted(module.rel)
        info = ModuleInfo(module=module, dotted=dotted)
        self.modules[dotted] = info
        self._raw_data[dotted] = []
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = _data_id(dotted, stmt.name)
                info.functions[stmt.name] = qname
                self._fn_nodes[qname] = (stmt, info, None)
            elif isinstance(stmt, ast.ClassDef):
                self._register_class(stmt, info, dotted)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                self._register_data(stmt, dotted)

    def _register_class(self, node: ast.ClassDef, info: ModuleInfo,
                        dotted: str) -> None:
        qname = _data_id(dotted, node.name)
        cls = ClassInfo(qname=qname, name=node.name, module=dotted,
                        rel=info.module.rel, line=node.lineno, node=node)
        raw_fields: list[tuple[str, ast.AST]] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mq = f"{qname}.{stmt.name}"
                cls.methods[stmt.name] = mq
                self._fn_nodes[mq] = (stmt, info, cls)
            elif (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not self._is_classvar(stmt.annotation)):
                raw_fields.append((stmt.target.id, stmt.annotation))
        self._raw_fields[qname] = raw_fields
        info.classes[node.name] = cls
        self.classes[qname] = cls

    @staticmethod
    def _is_classvar(annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Subscript):
            return _terminal_name(annotation.value) in ("ClassVar", "Final")
        return _terminal_name(annotation) in ("ClassVar", "Final")

    def _register_data(self, stmt: ast.AST, dotted: str) -> None:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        else:
            targets, value = [stmt.target], stmt.value
        if value is None:
            return
        for target in targets:
            if (isinstance(target, ast.Name)
                    and not target.id.startswith("__")):
                self._raw_data[dotted].append((target.id, stmt.lineno, value))

    # -- phase 2: imports, field types, data classification ------------

    def _resolve_imports(self, dotted: str, info: ModuleInfo) -> None:
        rel = info.module.rel
        parts = dotted.split(".") if dotted else []
        base = parts if _is_package(rel) else parts[:-1]
        for node in ast.walk(info.module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = self._internal_target(alias.name)
                    if target is not None:
                        info.imports[bound] = ("module", target)
                    else:
                        info.imports[bound] = (
                            "external",
                            alias.name if alias.asname else alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                self._resolve_import_from(node, info, base)

    def _resolve_import_from(self, node: ast.ImportFrom, info: ModuleInfo,
                             base: list[str]) -> None:
        if node.level == 0:
            target = self._internal_target(node.module or "")
            external = node.module or ""
        else:
            up = node.level - 1
            if up > len(base):
                return
            prefix = base[: len(base) - up] if up else base
            pieces = prefix + (node.module.split(".") if node.module else [])
            target = ".".join(pieces)
            external = None
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            if target is not None:
                submodule = _data_id(target, alias.name)
                if submodule in self.modules:
                    info.imports[bound] = ("module", submodule)
                else:
                    info.imports[bound] = ("symbol", target, alias.name)
            elif external is not None:
                info.imports[bound] = ("external", f"{external}.{alias.name}")

    def _internal_target(self, dotted: str) -> str | None:
        """Map an absolute import target onto a package-relative module."""
        if dotted == "repro":
            return ""
        if dotted.startswith("repro."):
            candidate = dotted[len("repro."):]
            if candidate in self.modules:
                return candidate
        if dotted in self.modules and dotted:
            return dotted
        return None

    def _resolve_in_module(self, dotted: str, symbol: str,
                           seen: frozenset = frozenset()) -> tuple | None:
        """Resolve ``symbol`` as seen from module ``dotted`` (re-exports too)."""
        if (dotted, symbol) in seen:
            return None
        info = self.modules.get(dotted)
        if info is None:
            return None
        if symbol in info.functions:
            return ("func", info.functions[symbol])
        if symbol in info.classes:
            return ("class", info.classes[symbol].qname)
        if symbol in info.data:
            return ("data", _data_id(dotted, symbol))
        entry = info.imports.get(symbol)
        if entry is None:
            submodule = _data_id(dotted, symbol)
            if submodule in self.modules:
                return ("module", submodule)
            return None
        if entry[0] == "symbol":
            return self._resolve_in_module(entry[1], entry[2],
                                           seen | {(dotted, symbol)})
        return entry

    def _resolve_fields(self, info: ModuleInfo) -> None:
        for cls in info.classes.values():
            for name, annotation in self._raw_fields.get(cls.qname, ()):
                cls.fields[name] = self._annotation_class(annotation, info)

    def _annotation_class(self, annotation: ast.AST,
                          info: ModuleInfo) -> str | None:
        for candidate in self._annotation_names(annotation):
            resolved = self._resolve_in_module(info.dotted, candidate)
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
        return None

    def _annotation_names(self, annotation: ast.AST) -> list[str]:
        if isinstance(annotation, ast.Name):
            return [annotation.id]
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                parsed = ast.parse(annotation.value, mode="eval")
            except SyntaxError:
                return []
            return self._annotation_names(parsed.body)
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            return (self._annotation_names(annotation.left)
                    + self._annotation_names(annotation.right))
        if isinstance(annotation, ast.Subscript):
            if _terminal_name(annotation.value) in ("Optional", "Final", "Annotated"):
                return self._annotation_names(annotation.slice)
        return []

    def _classify_data(self, dotted: str, info: ModuleInfo) -> None:
        for name, lineno, value in self._raw_data[dotted]:
            mutable, value_class = self._classify_value(value, info)
            info.data[name] = DataBinding(name=name, line=lineno,
                                          mutable=mutable,
                                          value_class=value_class)

    def _classify_value(self, value: ast.AST,
                        info: ModuleInfo) -> tuple[bool, str | None]:
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                              ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return True, None
        if isinstance(value, ast.Tuple):
            return any(self._classify_value(e, info)[0]
                       for e in value.elts), None
        if isinstance(value, ast.Call):
            terminal = _terminal_name(value.func)
            if terminal in _IMMUTABLE_FACTORIES:
                return False, None
            scope = _Scope(mod=info)
            resolved = self._resolve_value(value.func, scope)
            if resolved is not None and resolved[0] == "class":
                return True, resolved[1]
            return True, None
        # constants, names (aliases), arithmetic, lambdas, f-strings...
        return False, None

    def _mark_rebound_mutable(self) -> None:
        """Any binding some function writes is mutable state by definition."""
        for summary in self.functions.values():
            for effect in summary.effects:
                if effect.kind == "global-write":
                    binding = self._binding(effect.detail)
                    if binding is not None:
                        binding.mutable = True

    # -- phase 3: function body walks ----------------------------------

    def _summarize(self, qname: str, fn: ast.FunctionDef, info: ModuleInfo,
                   cls: ClassInfo | None) -> FunctionSummary:
        scope = self._build_scope(fn, info, cls)
        effects: list[Effect] = []
        calls: dict[str, int] = {}
        data_reads: list[tuple[str, int]] = []
        self_reads: set[str] = set()
        for node in _iter_body(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    self._handle_store(target, node.lineno, scope, effects)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    self._handle_store(target, node.lineno, scope, effects)
            elif isinstance(node, ast.Call):
                self._handle_call(node, scope, effects, calls, data_reads)
            elif isinstance(node, ast.With):
                self._handle_with(node, scope, calls)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                resolved = self._resolve_name(node.id, scope)
                if resolved is None:
                    continue
                if resolved[0] == "data":
                    data_reads.append((resolved[1], node.lineno))
                elif resolved[0] == "func":
                    calls.setdefault(resolved[1], node.lineno)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                self._handle_attribute_read(node, scope, calls, data_reads,
                                            self_reads, effects)
        unique_effects = tuple(dict.fromkeys(effects))
        return FunctionSummary(
            qname=qname, name=fn.name, module=info.dotted,
            rel=info.module.rel, line=fn.lineno, cls=cls,
            decorators=tuple(self._decorator_names(fn)),
            effects=unique_effects,
            calls=tuple(CallEdge(callee, line)
                        for callee, line in calls.items()),
            data_reads=tuple(dict.fromkeys(data_reads)),
            self_reads=frozenset(self_reads),
        )

    @staticmethod
    def _decorator_names(fn: ast.FunctionDef) -> list[str]:
        names = []
        for dec in fn.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            terminal = _terminal_name(target)
            if terminal is not None:
                names.append(terminal)
        return names

    def _build_scope(self, fn: ast.FunctionDef, info: ModuleInfo,
                     cls: ClassInfo | None) -> _Scope:
        params = set(_parameter_names(fn))
        local_names: set[str] = set()
        globals_declared: set[str] = set()
        for node in _iter_body(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local_names.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local_names.add(node.name)
                local_names.update(_parameter_names(node))
            elif isinstance(node, ast.Lambda):
                local_names.update(a.arg for a in (*node.args.posonlyargs,
                                                   *node.args.args,
                                                   *node.args.kwonlyargs))
            elif isinstance(node, ast.ExceptHandler) and node.name:
                local_names.add(node.name)
            elif isinstance(node, ast.Global):
                globals_declared.update(node.names)
            elif isinstance(node, ast.Nonlocal):
                local_names.update(node.names)
        local_names -= globals_declared
        self_name = ""
        if cls is not None:
            ordered = [*fn.args.posonlyargs, *fn.args.args]
            decorators = set(self._decorator_names(fn))
            if (ordered and ordered[0].arg == "self"
                    and "staticmethod" not in decorators
                    and "classmethod" not in decorators):
                self_name = "self"
        scope = _Scope(mod=info, cls=cls, fn_name=fn.name,
                       self_name=self_name, params=frozenset(params),
                       locals=frozenset(local_names),
                       globals_declared=frozenset(globals_declared))
        scope.local_types = self._infer_local_types(fn, scope)
        return scope

    def _infer_local_types(self, fn: ast.FunctionDef, scope: _Scope) -> dict:
        """One forward pass of ``name = <instance expr>`` propagation."""
        types: dict[str, str | None] = {}
        scope.local_types = types
        for node in _iter_body(fn):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            resolved = self._resolve_value(node.value, scope)
            if resolved is not None and resolved[0] == "instance":
                if name in types and types[name] != resolved[1]:
                    types[name] = None
                else:
                    types[name] = resolved[1]
            elif name in types:
                types[name] = None
        return {name: qname for name, qname in types.items() if qname}

    # -- name/value resolution -----------------------------------------

    def _resolve_name(self, name: str, scope: _Scope) -> tuple | None:
        if name == scope.self_name and scope.cls is not None:
            return ("self",)
        local_type = scope.local_types.get(name)
        if local_type:
            return ("instance", local_type)
        if name in scope.globals_declared:
            if name in scope.mod.data:
                return ("data", _data_id(scope.mod.dotted, name))
            return None
        if name in scope.params:
            return ("param", name)
        if name in scope.locals:
            return None
        return self._resolve_in_module(scope.mod.dotted, name)

    def _resolve_value(self, expr: ast.AST, scope: _Scope) -> tuple | None:
        if isinstance(expr, ast.Name):
            return self._resolve_name(expr.id, scope)
        if isinstance(expr, ast.Attribute):
            base = self._resolve_value(expr.value, scope)
            if base is None:
                return None
            attr = expr.attr
            if base[0] == "self":
                cls = scope.cls
                if attr in cls.methods:
                    return ("func", cls.methods[attr])
                field_type = cls.fields.get(attr)
                return ("instance", field_type) if field_type else None
            if base[0] == "instance":
                cinfo = self.classes.get(base[1])
                if cinfo is None:
                    return None
                if attr in cinfo.methods:
                    return ("func", cinfo.methods[attr])
                field_type = cinfo.fields.get(attr)
                return ("instance", field_type) if field_type else None
            if base[0] == "module":
                return self._resolve_in_module(base[1], attr)
            if base[0] == "external":
                return ("external", f"{base[1]}.{attr}")
            if base[0] == "class":
                cinfo = self.classes.get(base[1])
                if cinfo is not None and attr in cinfo.methods:
                    return ("func", cinfo.methods[attr])
                return None
            if base[0] == "data":
                binding = self._binding(base[1])
                if binding is not None and binding.value_class:
                    cinfo = self.classes.get(binding.value_class)
                    if cinfo is not None and attr in cinfo.methods:
                        return ("func", cinfo.methods[attr])
                return None
            return None
        if isinstance(expr, ast.Call):
            target = self._resolve_value(expr.func, scope)
            if target is not None and target[0] == "class":
                return ("instance", target[1])
            return None
        return None

    def _binding(self, dotted: str) -> DataBinding | None:
        module, _, name = dotted.rpartition(".")
        info = self.modules.get(module)
        if info is None and not module:
            info = self.modules.get("")
        if info is None:
            return None
        return info.data.get(name)

    # -- store / call / read handlers ----------------------------------

    def _handle_store(self, target: ast.AST, line: int, scope: _Scope,
                      effects: list[Effect]) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._handle_store(element, line, scope, effects)
            return
        if isinstance(target, ast.Starred):
            self._handle_store(target.value, line, scope, effects)
            return
        if isinstance(target, ast.Name):
            if target.id in scope.globals_declared:
                effects.append(Effect(
                    "global-write",
                    _data_id(scope.mod.dotted, target.id), line))
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self._handle_mutation(target, line, scope, effects)

    def _handle_mutation(self, node: ast.AST, line: int, scope: _Scope,
                         effects: list[Effect]) -> None:
        """An attribute/item store (or mutator call) through a dotted chain."""
        parts: list[str] = []
        current = node
        while isinstance(current, (ast.Attribute, ast.Subscript)):
            if isinstance(current, ast.Attribute):
                parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return
        parts.reverse()
        resolved = self._resolve_name(current.id, scope)
        if resolved is None:
            return
        suffix = ".".join(parts)
        if resolved[0] == "self":
            if scope.fn_name not in _CONSTRUCTION_METHODS:
                detail = f"self.{suffix}" if suffix else "self"
                effects.append(Effect("param-mutation", detail, line))
        elif resolved[0] == "param":
            detail = f"{resolved[1]}.{suffix}" if suffix else resolved[1]
            effects.append(Effect("param-mutation", detail, line))
        elif resolved[0] == "data":
            effects.append(Effect("global-write", resolved[1], line))
        elif resolved[0] == "module":
            effects.append(Effect(
                "global-write", _data_id(resolved[1], suffix), line))
        elif resolved[0] == "external":
            detail = f"{resolved[1]}.{suffix}" if suffix else resolved[1]
            effects.append(Effect("global-write", detail, line))

    def _handle_call(self, node: ast.Call, scope: _Scope,
                     effects: list[Effect], calls: dict[str, int],
                     data_reads: list[tuple[str, int]]) -> None:
        func = node.func
        terminal = _terminal_name(func)
        if terminal in INSTRUMENTATION_CALLS:
            return
        resolved = self._resolve_value(func, scope)
        if resolved is None:
            if (isinstance(func, ast.Name) and func.id in _IMPURE_BUILTINS
                    and func.id not in scope.locals
                    and func.id not in scope.params):
                effects.append(Effect("impure-call", func.id, node.lineno))
            elif isinstance(func, ast.Attribute):
                self._handle_unresolved_method(func, node.lineno, scope,
                                               effects, data_reads)
            return
        if resolved[0] == "func":
            calls.setdefault(resolved[1], node.lineno)
        elif resolved[0] == "class":
            init = self.classes[resolved[1]].methods.get("__init__")
            if init is not None:
                calls.setdefault(init, node.lineno)
        elif resolved[0] == "external":
            if _is_impure_call(resolved[1]):
                effects.append(Effect("impure-call", resolved[1], node.lineno))

    def _handle_unresolved_method(self, func: ast.Attribute, line: int,
                                  scope: _Scope, effects: list[Effect],
                                  data_reads: list[tuple[str, int]]) -> None:
        """A method call whose full chain did not resolve to a function:
        classify receiver mutation (mutator names) or module-data reads."""
        base = self._resolve_value(func.value, scope)
        if func.attr in _MUTATOR_METHODS:
            self._handle_mutation(func, line, scope, effects)
            return
        if base is not None and base[0] == "data":
            data_reads.append((base[1], line))

    def _handle_with(self, node: ast.With, scope: _Scope,
                     calls: dict[str, int]) -> None:
        for item in node.items:
            expr = item.context_expr
            if not isinstance(expr, ast.Call):
                continue
            resolved = self._resolve_value(expr.func, scope)
            if resolved is None or resolved[0] != "class":
                continue
            methods = self.classes[resolved[1]].methods
            for name in ("__enter__", "__exit__"):
                qname = methods.get(name)
                if qname is not None:
                    calls.setdefault(qname, expr.lineno)

    def _handle_attribute_read(self, node: ast.Attribute, scope: _Scope,
                               calls: dict[str, int],
                               data_reads: list[tuple[str, int]],
                               self_reads: set[str],
                               effects: list[Effect]) -> None:
        base_expr = node.value
        if (isinstance(base_expr, ast.Name) and scope.cls is not None
                and base_expr.id == scope.self_name):
            if node.attr in scope.cls.methods:
                calls.setdefault(scope.cls.methods[node.attr], node.lineno)
            else:
                self_reads.add(node.attr)
            return
        resolved = self._resolve_value(node, scope)
        if resolved is not None:
            if resolved[0] == "func":
                calls.setdefault(resolved[1], node.lineno)
            elif resolved[0] == "data":
                data_reads.append((resolved[1], node.lineno))
            elif resolved[0] == "external" and _is_impure_read(resolved[1]):
                effects.append(Effect("impure-call", resolved[1], node.lineno))


#: Single-slot build cache: the pass manager runs several passes over
#: the *same* project object, and the graph is identical for all of them.
_CACHE: list = []


def build_call_graph(project: LintProject) -> CallGraph:
    """Build (or fetch the cached) :class:`CallGraph` for ``project``."""
    if _CACHE and _CACHE[0][0] is project:
        return _CACHE[0][1]
    graph = _GraphBuilder(project).build()
    _CACHE[:] = [(project, graph)]
    return graph
