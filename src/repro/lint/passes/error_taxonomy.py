"""Error-taxonomy pass — every failure surfaces as a ``ReproError``.

The robustness layer only works if failures surface as
:class:`repro.errors.ReproError` subclasses and are never silently
swallowed:

* ``ERR001`` — bare ``except:`` swallows ``KeyboardInterrupt``;
* ``ERR002`` — ``except Exception``/``BaseException`` that never
  re-raises (the policy-capture pattern must re-raise non-ReproError);
* ``ERR003`` — ``raise ValueError`` / ``ZeroDivisionError`` /
  ``ArithmeticError`` outside the exception/validation modules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity
from ..project import LintProject
from .base import LintPass, RuleSpec

__all__ = ["ErrorTaxonomyPass"]

#: Builtin exception names that must not be raised directly.
FORBIDDEN_RAISES = frozenset({"ValueError", "ZeroDivisionError", "ArithmeticError"})


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise) and node.exc is None:
            return True
    return False


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


class ErrorTaxonomyPass(LintPass):
    """Flag bare excepts, swallowed exceptions, and raw builtin raises."""

    name = "error-taxonomy"
    rules = (
        RuleSpec("ERR001", Severity.ERROR, "bare 'except:' clause"),
        RuleSpec("ERR002", Severity.ERROR,
                 "'except Exception:' without a re-raise"),
        RuleSpec("ERR003", Severity.ERROR,
                 "raw builtin exception raised outside errors/validation "
                 "modules"),
    )

    def run(self, project: LintProject, config) -> Iterator[Finding]:
        """Scan exception handlers and raise statements in every module."""
        for module in project.modules:
            exempt = module.path.name in config.error_exempt_modules
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ExceptHandler):
                    if node.type is None:
                        yield self.finding(
                            project, module, "ERR001", node.lineno,
                            "bare 'except:' swallows everything",
                            suggestion="catch a ReproError subclass instead")
                    elif (isinstance(node.type, ast.Name)
                          and node.type.id in ("Exception", "BaseException")
                          and not _handler_reraises(node)):
                        yield self.finding(
                            project, module, "ERR002", node.lineno,
                            f"'except {node.type.id}:' without a re-raise",
                            suggestion="use the DiagnosticLog.capture() "
                                       "pattern (re-raise non-ReproError) or "
                                       "catch a specific type")
                elif isinstance(node, ast.Raise) and not exempt:
                    name = _raised_name(node)
                    if name in FORBIDDEN_RAISES:
                        yield self.finding(
                            project, module, "ERR003", node.lineno,
                            f"'raise {name}' bypasses the ReproError taxonomy",
                            suggestion="raise repro.errors.DomainError (or "
                                       "another ReproError) so callers can "
                                       "catch failures uniformly")
