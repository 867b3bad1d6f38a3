"""Analyzer configuration — defaults plus the ``[tool.repro-lint]`` table.

:func:`load_config` reads severity overrides and per-rule path excludes
from ``pyproject.toml``. Python ≥ 3.11 parses the file with the stdlib
``tomllib``; on 3.10 (where it does not exist and this repo installs no
third-party TOML parser) a minimal built-in parser handles the simple
table-of-scalars subset the ``[tool.repro-lint]`` section uses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import LintError
from .findings import Severity

try:  # python >= 3.11
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised on 3.10 only
    _toml = None

__all__ = ["LintConfig", "load_config"]

#: Entry-point name patterns that must thread ``policy=`` (rule POL001/2).
DEFAULT_POLICY_PATTERNS = (
    "sweep", "_series$", "^evaluate_", "_report$", "^tornado$",
    "elasticities$", "^optimum_vs",
)
#: Entry-point name patterns that must be observability-wired (OBS001):
#: the policy set plus single-point solvers.
DEFAULT_OBS_PATTERNS = DEFAULT_POLICY_PATTERNS + ("^optimal_",)
#: Package-relative path prefixes whose entry points the POL/OBS passes audit.
DEFAULT_ENTRY_PACKAGES = ("optimize/", "roadmap/")
#: Modules holding the engine kernels the PURE pass audits.
DEFAULT_KERNEL_MODULES = ("engine/kernels.py",)
#: Modules whose classes must follow the per-metric lock pattern.
DEFAULT_METRICS_MODULES = ("obs/metrics.py", "obs/perf/sketch.py")


@dataclass(frozen=True)
class LintConfig:
    """Effective analyzer configuration.

    Attributes
    ----------
    severity_overrides:
        Rule id → :class:`Severity` replacing the rule's default.
    excludes:
        Rule id → glob patterns; a finding whose module matches any
        pattern (package-relative or repo-relative path) is dropped.
    select:
        When non-empty, only these rule ids run.
    ignore:
        Rule ids dropped entirely.
    policy_patterns / obs_patterns:
        Regexes naming the sweep/scan entry points audited by the
        policy-threading and obs-wiring passes.
    entry_packages:
        Package-relative prefixes those passes look inside.
    units_modules:
        Module filenames allowed to contain unit-conversion literals.
    error_exempt_modules:
        Module filenames allowed to raise bare builtin exceptions.
    constants_modules:
        Package-relative paths allowed to bind paper-constant literals.
    kernel_modules:
        Package-relative paths holding the engine kernel classes the
        kernel-purity pass audits (PURE001/PURE002).
    metrics_modules:
        Package-relative paths whose lock-carrying classes must mutate
        state only under ``with self._lock`` (CONC002).
    """

    severity_overrides: dict[str, Severity] = field(default_factory=dict)
    excludes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()
    policy_patterns: tuple[str, ...] = DEFAULT_POLICY_PATTERNS
    obs_patterns: tuple[str, ...] = DEFAULT_OBS_PATTERNS
    entry_packages: tuple[str, ...] = DEFAULT_ENTRY_PACKAGES
    units_modules: tuple[str, ...] = ("units.py",)
    error_exempt_modules: tuple[str, ...] = ("errors.py", "validation.py")
    constants_modules: tuple[str, ...] = ("constants.py",)
    kernel_modules: tuple[str, ...] = DEFAULT_KERNEL_MODULES
    metrics_modules: tuple[str, ...] = DEFAULT_METRICS_MODULES

    def severity_for(self, rule: str, default: Severity) -> Severity:
        """The effective severity of ``rule``."""
        return self.severity_overrides.get(rule, default)

    def rule_enabled(self, rule: str) -> bool:
        """Whether ``rule`` survives the select/ignore filters."""
        if rule in self.ignore:
            return False
        return not self.select or rule in self.select


def _parse_toml_fallback(text: str) -> dict:
    """Minimal TOML subset parser for ``[tool.repro-lint]`` on 3.10.

    Supports ``[dotted.table]`` headers, ``key = "string"``,
    ``key = number``, ``key = true/false`` and single-line arrays of
    strings — the only shapes the lint table uses. Anything fancier in
    unrelated tables is skipped rather than rejected.
    """
    root: dict = {}
    current = root
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header = re.fullmatch(r"\[([A-Za-z0-9_.\"'\- ]+)\]", line)
        if header:
            current = root
            for part in header.group(1).split("."):
                key = part.strip().strip("\"'")
                current = current.setdefault(key, {})
            continue
        match = re.match(r"([A-Za-z0-9_\-\"']+)\s*=\s*(.+)$", line)
        if not match:
            continue
        key = match.group(1).strip("\"'")
        value = match.group(2).strip()
        if not value.startswith(("\"", "'", "[")):
            value = value.split("#", 1)[0].strip()
        if value.startswith("[") and value.endswith("]"):
            current[key] = re.findall(r"[\"']([^\"']*)[\"']", value)
        elif value.startswith(("\"", "'")):
            current[key] = value[1:-1]
        elif value in ("true", "false"):
            current[key] = value == "true"
        else:
            try:
                current[key] = float(value) if "." in value else int(value)
            except ValueError:
                continue
    return root


def _as_str_tuple(value, *, where: str) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise LintError(f"{where} must be a string or list of strings; got {value!r}")


def load_config(pyproject: Path | str | None) -> LintConfig:
    """Build the config from ``pyproject.toml``'s ``[tool.repro-lint]``.

    Missing file or missing table yields the defaults. Unknown keys in
    the table raise :class:`~repro.errors.LintError` so typos fail loud.
    """
    if pyproject is None:
        return LintConfig()
    path = Path(pyproject)
    if not path.is_file():
        return LintConfig()
    text = path.read_text(encoding="utf-8")
    if _toml is not None:
        try:
            data = _toml.loads(text)
        except _toml.TOMLDecodeError as exc:
            raise LintError(f"cannot parse {path}: {exc}") from exc
    else:  # pragma: no cover - 3.10 path, tested via _parse_toml_fallback directly
        data = _parse_toml_fallback(text)
    table = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(table, dict):
        raise LintError("[tool.repro-lint] must be a table")
    kwargs: dict = {}
    known_lists = {
        "select", "ignore", "policy-patterns", "obs-patterns",
        "entry-packages", "units-modules", "error-exempt-modules",
        "constants-modules", "kernel-modules", "metrics-modules",
    }
    for key, value in table.items():
        if key == "severity":
            if not isinstance(value, dict):
                raise LintError("[tool.repro-lint.severity] must be a table")
            kwargs["severity_overrides"] = {
                rule: Severity.parse(sev) for rule, sev in value.items()}
        elif key == "exclude":
            if not isinstance(value, dict):
                raise LintError("[tool.repro-lint.exclude] must be a table")
            kwargs["excludes"] = {
                rule: _as_str_tuple(globs, where=f"exclude.{rule}")
                for rule, globs in value.items()}
        elif key in known_lists:
            kwargs[key.replace("-", "_")] = _as_str_tuple(
                value, where=f"[tool.repro-lint] {key}")
        else:
            raise LintError(f"unknown [tool.repro-lint] key {key!r}")
    return LintConfig(**kwargs)
