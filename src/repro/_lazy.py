"""Package exports that load on first use (PEP 562).

Every package ``__init__`` in ``repro`` declares one literal table
mapping each submodule to the names the package re-exports from it::

    from .. import _lazy

    __getattr__, __dir__ = _lazy.attach(__name__, {
        "total": ("TotalCostModel", "PAPER_FIGURE4_MODEL"),
        "core": ("evaluate_grid", "parallel_settings as settings"),
        "perf": (),
    })

Importing the package runs no submodule. The first access to
``package.TotalCostModel`` (or ``from package import TotalCostModel``)
imports ``package.total``, binds the name in the package namespace,
and every later access is a plain attribute lookup. A table key also
resolves to the submodule itself, so ``package.perf`` works before
anything imported it. ``"attr as name"`` re-exports ``attr`` under
another name, as ``from .core import parallel_settings as settings`` would.

A plain module may declare a table too. Its keys are relative to the
package the module is in, as a ``from .`` import in it would be, and a
dotted key reaches into a sibling package: ``repro.api`` re-exports the
wire schemas from ``"serve.schemas"`` without importing them. A dotted
key binds only its names, not the module itself.

The lint pass behind API001 reads the same literal table
(:func:`static_exports`), so ``__all__`` still may list only names the
package binds.
"""

from __future__ import annotations

import ast
import sys

__all__ = ["attach", "static_exports"]


def _entries(exports: dict) -> dict[str, tuple[str, str | None]]:
    """``{exported name: (submodule, attribute or None for the module)}``."""
    where: dict[str, tuple[str, str | None]] = {}
    for submodule, names in exports.items():
        if "." not in submodule:
            where[submodule] = (submodule, None)
        for entry in names:
            attr, _, alias = entry.partition(" as ")
            where[alias or attr] = (submodule, attr)
    return where


def attach(name: str, exports: dict[str, tuple[str, ...]]):
    """Return the ``(__getattr__, __dir__)`` pair for module ``name``.

    ``exports`` maps module names, relative to the package ``name`` is
    in (``name`` itself for a package), to the names ``name``
    re-exports from each.
    """
    where = _entries(exports)
    package = sys.modules[name].__package__

    def __getattr__(attr_name: str):
        try:
            submodule, attr = where[attr_name]
        except KeyError:
            raise AttributeError(
                f"module {name!r} has no attribute {attr_name!r}") from None
        # ``__import__`` rather than ``importlib.import_module``: only the
        # former is logged by ``python -X importtime``.
        __import__(f"{package}.{submodule}")
        module = sys.modules[f"{package}.{submodule}"]
        value = module if attr is None else getattr(module, attr)
        setattr(sys.modules[name], attr_name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[name])) | set(where))

    return __getattr__, __dir__


def static_exports(tree: ast.Module) -> dict[str, tuple[str, str | None]] | None:
    """A module's literal ``_lazy.attach`` table, read from its AST.

    Returns ``{name: (submodule, attribute or None)}`` for every name the
    table binds; ``None`` when the module calls no ``_lazy.attach``; an
    empty dict when the table is not a literal (nothing is trusted then).
    """
    for node in tree.body:
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "attach"):
            continue
        try:
            return _entries(ast.literal_eval(node.value.args[1]))
        except (IndexError, ValueError, TypeError, AttributeError):
            return {}
    return None
