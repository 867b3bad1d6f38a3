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
  (``__main__`` modules are exempt — they are CLIs, not API).
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
    )

    def run(self, project: LintProject, config) -> Iterator[Finding]:
        """Check every module, then cross-check the committed API index."""
        for module in project.modules:
            yield from self._check_module(project, module)
        yield from self._check_docs(project)

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
