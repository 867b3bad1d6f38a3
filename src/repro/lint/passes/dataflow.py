"""Dataflow passes: kernel purity (PURE) and lock discipline (CONC).

They mechanize two invariants the engine's correctness rests on but no
runtime test can economically cover:

* the SHA-256 memo cache is only sound if every kernel is transitively
  pure and its ``token()`` covers everything its body reads
  (PURE001/PURE002), and memoized or traced bodies never mutate shared
  state (PURE003) — checked on the project-wide call graph built by
  :mod:`repro.lint.graph`;
* metric objects, which request and block threads update at once,
  keep their per-metric lock discipline (CONC002).

The analysis reports only *provable* violations: unresolvable calls
(higher-order through unannotated parameters, dynamic dispatch) simply
end the walk, and gated instrumentation helpers are exempt throughout
(see :data:`repro.lint.graph.INSTRUMENTATION_CALLS`).
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterator

from ..findings import Finding, Severity
from ..graph import CallGraph, ClassInfo, build_call_graph
from ..project import LintModule, LintProject
from .base import LintPass, RuleSpec

__all__ = ["KernelPurityPass", "ConcurrencyPass"]

#: The kernel evaluation surface whose purity the memo cache relies on.
_KERNEL_BODY_METHODS = ("batch", "point", "point_py", "feasible")

#: Decorators marking a function as memoized or traced.
_CACHED_DECORATORS = frozenset({"traced", "cached_property", "lru_cache",
                                "cache"})

#: Receiver-mutating method names (mirror of the graph's table; kept
#: here for the lexical CONC002 walk which does not use the graph).
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "clear", "pop",
    "popitem", "remove", "discard", "setdefault", "sort", "reverse",
})


def _matches_any(rel: str, patterns) -> bool:
    return any(fnmatch(rel, pattern) for pattern in patterns)


def _chain_text(chain: tuple[str, ...]) -> str:
    """Render a witness call chain, omitting the trivial self-chain."""
    if len(chain) <= 1:
        return ""
    return " via " + " -> ".join(chain[1:])


class KernelPurityPass(LintPass):
    """PURE001–PURE003: engine kernels and memoized bodies stay pure."""

    name = "kernel-purity"
    rules = (
        RuleSpec("PURE001", Severity.ERROR,
                 "kernel body transitively reaches an impure call, "
                 "module-state write, or argument mutation"),
        RuleSpec("PURE002", Severity.ERROR,
                 "kernel reads state its token() does not cover — would "
                 "silently poison memo-cache keys"),
        RuleSpec("PURE003", Severity.ERROR,
                 "@traced/cached function directly mutates module-level "
                 "state"),
    )

    def run(self, project: LintProject, config) -> Iterator[Finding]:
        """Audit kernel classes and memoized functions project-wide."""
        graph = build_call_graph(project)
        by_rel = {module.rel: module for module in project.modules}
        for module in project.modules:
            if not _matches_any(module.rel, config.kernel_modules):
                continue
            info = graph.modules.get(_module_dotted(module))
            if info is None:
                continue
            for cls in info.classes.values():
                if "token" not in cls.methods:
                    continue
                yield from self._check_kernel(project, module, graph, cls)
        yield from self._check_cached(project, by_rel, graph)

    def _check_kernel(self, project: LintProject, module: LintModule,
                      graph: CallGraph, cls: ClassInfo) -> Iterator[Finding]:
        covered = _class_self_reads(graph, cls, cls.methods["token"])
        reported_fields: set[str] = set()
        reported_effects: set[tuple] = set()
        reported_reads: set[str] = set()
        for method_name in _KERNEL_BODY_METHODS:
            qname = cls.methods.get(method_name)
            if qname is None:
                continue
            line = graph.functions[qname].line
            for te in graph.transitive_effects(qname):
                if te.effect.kind not in ("impure-call", "global-write",
                                          "param-mutation"):
                    continue
                key = (method_name, te.effect.kind, te.effect.detail)
                if key in reported_effects:
                    continue
                reported_effects.add(key)
                verb = {"impure-call": "reaches impure call",
                        "global-write": "reaches a write to module state",
                        "param-mutation": "reaches a mutation of"}[te.effect.kind]
                yield self.finding(
                    project, module, "PURE001", line,
                    f"{cls.name}.{method_name}() {verb} "
                    f"'{te.effect.detail}'{_chain_text(te.chain)}",
                    suggestion="kernel bodies must be deterministic pure "
                               "functions of the fields token() covers")
            # PURE002a: dataclass fields read but absent from token().
            fields_read = _class_self_reads(graph, cls, qname)
            token_line = graph.functions[cls.methods["token"]].line
            for field_name in sorted(fields_read):
                if field_name not in cls.fields or field_name in covered:
                    continue
                if field_name in reported_fields:
                    continue
                reported_fields.add(field_name)
                yield self.finding(
                    project, module, "PURE002", token_line,
                    f"kernel field '{field_name}' is read by "
                    f"{cls.name}.{method_name}() but not covered by token()",
                    suggestion="add the field to token() so cache keys "
                               "see it")
            # PURE002b: mutable module-level bindings on the body path.
            for te in graph.transitive_reads(qname):
                binding = graph.data_binding(te.effect.detail)
                if binding is None or not binding.mutable:
                    continue
                if te.effect.detail in reported_reads:
                    continue
                reported_reads.add(te.effect.detail)
                yield self.finding(
                    project, module, "PURE002", line,
                    f"module-level mutable state '{te.effect.detail}' is "
                    f"read on the {cls.name}.{method_name}() path"
                    f"{_chain_text(te.chain)} and is outside token()",
                    suggestion="bind the value immutably (tuple/frozenset) "
                               "or fold it into token()")

    def _check_cached(self, project: LintProject, by_rel: dict,
                      graph: CallGraph) -> Iterator[Finding]:
        for summary in graph.functions.values():
            cached = set(summary.decorators) & _CACHED_DECORATORS
            if not cached:
                continue
            module = by_rel.get(summary.rel)
            decorator = sorted(cached)[0]
            for effect in summary.effects:
                if effect.kind != "global-write":
                    continue
                yield self.finding(
                    project, module, "PURE003", effect.line,
                    f"@{decorator} function {summary.name}() writes "
                    f"module-level state '{effect.detail}' — memoized/"
                    f"traced bodies must not mutate shared state",
                    suggestion="hoist the mutation out of the cached body")


class ConcurrencyPass(LintPass):
    """CONC002: per-metric lock discipline."""

    name = "concurrency"
    rules = (
        RuleSpec("CONC002", Severity.ERROR,
                 "metric/sketch state mutated outside the per-metric "
                 "`with self._lock` pattern"),
    )

    def run(self, project: LintProject, config) -> Iterator[Finding]:
        """Audit lock discipline in the configured metrics modules."""
        for module in project.modules:
            if _matches_any(module.rel, config.metrics_modules):
                yield from self._check_lock_discipline(project, module)

    def _check_lock_discipline(self, project: LintProject,
                               module: LintModule) -> Iterator[Finding]:
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            if not _has_lock_attr(stmt):
                continue
            for method in stmt.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                # __init__/__post_init__/__setstate__ run on an object no
                # other thread can reference yet (construction/unpickle),
                # and __setstate__ is where the unpicklable lock itself is
                # re-created — the lock pattern does not apply there.
                if method.name in ("__init__", "__post_init__",
                                   "__setstate__"):
                    continue
                yield from self._scan_method(project, module, stmt, method)

    def _scan_method(self, project: LintProject, module: LintModule,
                     cls: ast.ClassDef,
                     method: ast.FunctionDef) -> Iterator[Finding]:
        findings: list[Finding] = []

        def visit(node: ast.AST, locked: bool) -> None:
            if isinstance(node, ast.With):
                now_locked = locked or any(
                    _is_self_lock(item.context_expr) for item in node.items)
                for item in node.items:
                    visit(item.context_expr, locked)
                for child in node.body:
                    visit(child, now_locked)
                return
            if not locked:
                target_attr = _unlocked_self_write(node)
                if target_attr is not None and target_attr != "_lock":
                    findings.append(self.finding(
                        project, module, "CONC002", node.lineno,
                        f"{cls.name}.{method.name}() mutates "
                        f"'self.{target_attr}' outside the "
                        f"`with self._lock:` pattern",
                        suggestion="wrap the mutation in `with self._lock:`"))
            for child in ast.iter_child_nodes(node):
                visit(child, locked)

        for stmt in method.body:
            visit(stmt, False)
        yield from findings


def _module_dotted(module: LintModule) -> str:
    name = module.rel[:-3].replace("/", ".")
    if name == "__init__":
        return ""
    if name.endswith(".__init__"):
        return name[: -len(".__init__")]
    return name


def _class_self_reads(graph: CallGraph, cls: ClassInfo,
                      root: str) -> frozenset[str]:
    """Union of ``self`` attribute reads over same-class methods
    reachable from ``root`` (other classes' ``self`` is a different
    object, so their reads do not count toward this kernel)."""
    reads: set[str] = set()
    for qname in graph.reachable(root):
        summary = graph.functions.get(qname)
        if summary is not None and summary.cls is cls:
            reads.update(summary.self_reads)
    return frozenset(reads)


def _has_lock_attr(cls: ast.ClassDef) -> bool:
    """Whether a class carries a ``_lock`` attribute — dataclass field,
    ``__slots__`` entry, or ``self._lock = ...`` in ``__init__``."""
    for stmt in cls.body:
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "_lock"):
            return True
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    for node in ast.walk(stmt.value):
                        if (isinstance(node, ast.Constant)
                                and node.value == "_lock"):
                            return True
        if (isinstance(stmt, ast.FunctionDef)
                and stmt.name in ("__init__", "__post_init__")):
            for node in ast.walk(stmt):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and target.attr == "_lock"
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        return True
    return False


def _is_self_lock(expr: ast.AST) -> bool:
    return (isinstance(expr, ast.Attribute) and expr.attr == "_lock"
            and isinstance(expr.value, ast.Name) and expr.value.id == "self")


def _self_attr_of(node: ast.AST) -> str | None:
    """The ``X`` of a ``self.X``-rooted attribute/subscript chain."""
    current = node
    last_attr = None
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        if isinstance(current, ast.Attribute):
            last_attr = current.attr
        current = current.value
    if isinstance(current, ast.Name) and current.id == "self":
        return last_attr
    return None


def _unlocked_self_write(node: ast.AST) -> str | None:
    """The mutated ``self`` attribute when ``node`` writes one, else None."""
    targets = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS):
        return _self_attr_of(node.func.value)
    for target in targets:
        attr = _self_attr_of(target)
        if attr is not None:
            return attr
    return None
