"""API-parity pass — ``__all__``, docstrings, and ``docs/API.md`` agree.

The deliverable contract (``tests/test_docs_and_api.py``) is that the
public API is discoverable and documented. This pass makes the same
promises mechanically checkable before the test suite runs:

* ``API001`` — a name listed in ``__all__`` is not bound in the module
  (a package binds the names of its literal lazy-export table too, see
  :mod:`repro._lazy`);
* ``API002`` — a public def/class listed in its module's ``__all__``
  has no docstring (or the module itself has none);
* ``API003`` — a package section of ``docs/API.md`` disagrees with the
  package's actual ``__all__`` (symbol missing from the docs, or
  documented but no longer exported);
* ``API004`` — a module defines no literal ``__all__`` at all
  (``__main__`` modules are exempt — they are CLIs, not API);
* ``API006`` — the ``Scenario`` facade and the ``repro.serve`` wire
  schemas drift apart: a public ``Scenario`` method has no entry in
  ``SCENARIO_ROUTES``, the mapped request dataclass does not exist, a
  method parameter is missing from the request's fields (names carry
  the unit suffixes, so this is the units check too), or a route maps
  to no facade method. The HTTP schema and the python facade are one
  surface by contract; this rule makes the contract mechanical.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..._lazy import static_exports
from ..findings import Finding, Severity
from ..project import LintModule, LintProject
from .base import LintPass, RuleSpec, static_all, top_level_bindings

__all__ = ["ApiParityPass"]

_SECTION_RE = re.compile(r"^## `(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)*)`\s*$")
_ROW_RE = re.compile(r"^\| `([A-Za-z_][A-Za-z0-9_]*)` \|")

#: ``Scenario`` methods that construct/copy scenarios rather than
#: analyse one — they are facade plumbing, not HTTP routes (API006).
_SCENARIO_CONSTRUCTORS = frozenset({"from_node", "replace"})
#: Facade parameters that receive output (mutated in place) — they have
#: no place in a request schema, whose response carries the data.
_ROUTE_OUT_PARAMS = frozenset({"diagnostics"})


def _docs_sections(text: str) -> dict[str, set[str]]:
    """Parse ``docs/API.md`` into ``{dotted module: {documented symbols}}``."""
    sections: dict[str, set[str]] = {}
    current: set[str] | None = None
    for line in text.splitlines():
        header = _SECTION_RE.match(line)
        if header:
            current = sections.setdefault(header.group(1), set())
            continue
        if current is None:
            continue
        row = _ROW_RE.match(line)
        if row:
            current.add(row.group(1))
    return sections


class ApiParityPass(LintPass):
    """Cross-check ``__all__``, docstrings, and the committed API index."""

    name = "api-parity"
    rules = (
        RuleSpec("API001", Severity.ERROR,
                 "__all__ lists a name the module does not bind"),
        RuleSpec("API002", Severity.ERROR,
                 "public symbol or module missing a docstring"),
        RuleSpec("API003", Severity.ERROR,
                 "docs/API.md out of sync with the package __all__"),
        RuleSpec("API004", Severity.ERROR,
                 "module defines no literal __all__"),
        RuleSpec("API006", Severity.ERROR,
                 "Scenario facade method out of sync with the serve "
                 "route schemas"),
    )

    def run(self, project: LintProject, config) -> Iterator[Finding]:
        """Check every module, then cross-check the committed API index."""
        for module in project.modules:
            yield from self._check_module(project, module)
        yield from self._check_docs(project)
        yield from self._check_route_parity(project)

    def _check_module(self, project: LintProject,
                      module: LintModule) -> Iterator[Finding]:
        if module.path.name == "__main__.py":
            return
        exported, all_line = static_all(module.tree)
        if exported is None:
            yield self.finding(
                project, module, "API004", all_line or 1,
                "module defines no literal __all__",
                suggestion="declare the public API explicitly")
            return
        if ast.get_docstring(module.tree) is None:
            yield self.finding(
                project, module, "API002", 1,
                "module has no docstring")
        bound = top_level_bindings(module.tree)
        bound.update(static_exports(module.tree) or ())
        for name in exported:
            if name not in bound:
                yield self.finding(
                    project, module, "API001", all_line,
                    f"__all__ lists {name!r} but the module never binds it",
                    suggestion="remove the entry or define/import the symbol")
        for node in module.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in exported and ast.get_docstring(node) is None:
                yield self.finding(
                    project, module, "API002", node.lineno,
                    f"public {type(node).__name__.replace('Def', '').lower()} "
                    f"{node.name!r} has no docstring")

    def _check_docs(self, project: LintProject) -> Iterator[Finding]:
        if project.repo_root is None:
            return
        api_md = project.repo_root / "docs" / "API.md"
        if not api_md.is_file():
            return
        rel_docs = api_md.relative_to(project.repo_root).as_posix()
        sections = _docs_sections(api_md.read_text(encoding="utf-8"))
        for dotted, documented in sections.items():
            module = self._resolve(project, dotted)
            if module is None:
                yield self.finding(
                    project, None, "API003", 1,
                    f"docs/API.md documents {dotted!r} but the package has "
                    "no such module",
                    suggestion="regenerate with python tools/gen_api_docs.py",
                    path=rel_docs)
                continue
            exported, all_line = static_all(module.tree)
            if exported is None:
                continue
            public = {
                name for name in exported
                if not name.startswith("__")
                and not self._is_submodule(project, dotted, name)
            }
            for name in sorted(public - documented):
                yield self.finding(
                    project, module, "API003", all_line,
                    f"{dotted}.{name} exported but missing from docs/API.md",
                    suggestion="regenerate with python tools/gen_api_docs.py")
            for name in sorted(documented - public):
                yield self.finding(
                    project, None, "API003", 1,
                    f"docs/API.md documents {dotted}.{name} which is no "
                    "longer exported",
                    suggestion="regenerate with python tools/gen_api_docs.py",
                    path=rel_docs)

    def _check_route_parity(self, project: LintProject) -> Iterator[Finding]:
        """``API006``: the facade methods and the wire schemas agree.

        Reads both sides statically — the ``Scenario`` class body in
        ``api.py`` and the literal ``SCENARIO_ROUTES`` table plus the
        request dataclasses in ``serve/schemas.py`` — so the check
        needs no imports and runs on a stdlib-only interpreter.
        """
        api = project.module_at("api.py")
        schemas = project.module_at("serve/schemas.py")
        if api is None or schemas is None:
            return
        scenario = next(
            (node for node in api.tree.body
             if isinstance(node, ast.ClassDef) and node.name == "Scenario"),
            None)
        if scenario is None:
            return
        routes, routes_line = self._scenario_routes(schemas.tree)
        if routes is None:
            yield self.finding(
                project, schemas, "API006", routes_line or 1,
                "serve/schemas.py defines no literal SCENARIO_ROUTES dict",
                suggestion="keep the route table a plain {str: str} literal")
            return
        fields = self._request_fields(schemas.tree)
        methods: dict[str, ast.FunctionDef] = {}
        for node in scenario.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (node.name.startswith("_")
                    or node.name in _SCENARIO_CONSTRUCTORS
                    or self._is_property(node)):
                continue
            methods[node.name] = node
        for name, node in sorted(methods.items()):
            request_name = routes.get(name)
            if request_name is None:
                yield self.finding(
                    project, api, "API006", node.lineno,
                    f"public Scenario method {name!r} has no serve route "
                    "schema",
                    suggestion="map it in SCENARIO_ROUTES to a request "
                    "dataclass")
                continue
            request_fields = fields.get(request_name)
            if request_fields is None:
                yield self.finding(
                    project, schemas, "API006", routes_line,
                    f"SCENARIO_ROUTES maps {name!r} to {request_name!r}, "
                    "which serve/schemas.py does not define")
                continue
            params = [arg.arg for arg in (node.args.posonlyargs
                                          + node.args.args
                                          + node.args.kwonlyargs)][1:]
            for param in params:
                if param in _ROUTE_OUT_PARAMS or param in request_fields:
                    continue
                yield self.finding(
                    project, api, "API006", node.lineno,
                    f"Scenario.{name}() parameter {param!r} is not a field "
                    f"of {request_name}",
                    suggestion="keep facade parameters and wire fields one "
                    "surface (same names, same unit suffixes)")
        for route in sorted(set(routes) - set(methods)):
            yield self.finding(
                project, schemas, "API006", routes_line,
                f"SCENARIO_ROUTES lists {route!r} but Scenario has no such "
                "public method",
                suggestion="drop the route or add the facade method")

    @staticmethod
    def _scenario_routes(tree: ast.Module):
        """The literal ``SCENARIO_ROUTES`` dict and its line, if parseable."""
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "SCENARIO_ROUTES" not in targets:
                continue
            try:
                value = ast.literal_eval(node.value)
            except ValueError:
                return None, node.lineno
            if (isinstance(value, dict)
                    and all(isinstance(k, str) and isinstance(v, str)
                            for k, v in value.items())):
                return value, node.lineno
            return None, node.lineno
        return None, None

    @staticmethod
    def _request_fields(tree: ast.Module) -> dict[str, set[str]]:
        """``{class name: {annotated field names}}`` for every class."""
        fields: dict[str, set[str]] = {}
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            names = {
                stmt.target.id
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and not stmt.target.id.startswith("_")
            }
            fields[node.name] = names
        return fields

    @staticmethod
    def _is_property(node: ast.FunctionDef) -> bool:
        for dec in node.decorator_list:
            name = (dec.id if isinstance(dec, ast.Name)
                    else dec.attr if isinstance(dec, ast.Attribute)
                    else None)
            if name in ("property", "cached_property"):
                return True
        return False

    @staticmethod
    def _resolve(project: LintProject, dotted: str) -> LintModule | None:
        parts = dotted.split(".")[1:]  # drop the root package name
        base = "/".join(parts)
        if not base:
            return project.module_at("__init__.py")
        return (project.module_at(f"{base}/__init__.py")
                or project.module_at(f"{base}.py"))

    @staticmethod
    def _is_submodule(project: LintProject, dotted: str, name: str) -> bool:
        parts = dotted.split(".")[1:]
        prefix = "/".join((*parts, name))
        return (project.module_at(f"{prefix}/__init__.py") is not None
                or project.module_at(f"{prefix}.py") is not None)
