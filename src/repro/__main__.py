"""Command-line summary: ``python -m repro [report] [flags]``.

Prints a one-screen reproduction summary — the paper's headline numbers
regenerated live — so a fresh checkout can be sanity-checked without
running the full bench suite.

Failure contract: any :class:`repro.errors.ReproError` exits nonzero
with a one-line ``error: ...`` message on stderr — never a traceback.

Flags (any combination; without them the output is byte-identical to
the bare report):

``--trace``
    Append the hierarchical span tree of the evaluations behind the
    report (see :mod:`repro.obs`).
``--metrics``
    Append the counter/gauge/histogram table.
``--profile``
    Append the per-span-name timing roll-up (calls, total/self/mean).
``--permissive``
    Evaluate under :attr:`repro.robust.ErrorPolicy.MASK`: infeasible
    points become NaN entries instead of aborting the report, and a
    masked-point summary is appended when anything was masked.
``--telemetry DIR``
    Run the report with observability enabled and dump the full
    telemetry snapshot bundle (``metrics.prom`` in Prometheus text
    format, ``spans.otlp.json``, ``provenance.json``) into ``DIR``
    — see :func:`repro.obs.write_snapshot`.
``--history PATH``
    Append this run (provenance + metric/sketch payload)
    to the persistent run-history store at ``PATH`` — see
    :mod:`repro.obs.history`. Defaults to ``$REPRO_HISTORY`` when the
    variable is set; trend/drift reporting over the store lives under
    ``python -m repro.obs``.
"""

from __future__ import annotations

import sys

from . import obs
from .obs import history as obs_history
from .api import Scenario, evaluate_many
from .cost import PAPER_FIGURE4_MODEL
from .data import DesignRegistry, load_itrs_1999
from .density import sd_vs_feature_fit
from .errors import DomainError, ReproError
from .obs.instrument import traced
from .report import format_table
from .roadmap import constant_cost_series
from .robust import DEFAULT_RETRY_BUDGET, Diagnostic, ErrorPolicy

_FLAGS = ("--trace", "--metrics", "--profile", "--permissive")


@traced("report.build")
def build_report(policy: ErrorPolicy = ErrorPolicy.RAISE,
                 diagnostics: list | None = None) -> str:
    """Assemble the summary text (importable for testing).

    Under ``policy=ErrorPolicy.MASK`` (the CLI's ``--permissive``) the
    sections degrade gracefully: series points that fail evaluate to
    NaN, failing optima are reported as ``n/a``, and every failure
    lands in the optional ``diagnostics`` list.
    """
    policy = ErrorPolicy.coerce(policy)
    permissive = policy is not ErrorPolicy.RAISE
    lines = []
    lines.append("repro - Maly, 'IC Design in High-Cost Nanometer-Technologies "
                 "Era' (DAC 2001)")
    lines.append("=" * 74)

    registry = DesignRegistry.table_a1()
    sd_logic = registry.sd_logic_values()
    fit = sd_vs_feature_fit(registry)
    lines.append(f"\nTable A1: {len(registry)} designs | logic s_d "
                 f"{min(sd_logic):.0f}-{max(sd_logic):.0f} | trend s_d ~ "
                 f"lambda^{fit.slope:.2f} (rising as features shrink)")

    series = constant_cost_series(load_itrs_1999(), policy=policy,
                                  diagnostics=diagnostics)
    rows = [(p.node.year, p.node.feature_nm, p.sd_implied, p.sd_constant_cost,
             p.ratio) for p in series]
    lines.append("\n" + format_table(
        ["year", "nm", "ITRS s_d", "const-cost s_d", "ratio"],
        rows, float_spec=".4g",
        title="Figures 2-3: the cost contradiction ($34 die, 8 $/cm2, Y=0.8)"))

    operating_points = [
        Scenario(n_transistors=1e7, feature_um=0.18, sd=300.0,
                 n_wafers=5_000, yield_fraction=0.4, label="5k wafers, Y=0.4"),
        Scenario(n_transistors=1e7, feature_um=0.18, sd=300.0,
                 n_wafers=50_000, yield_fraction=0.9, label="50k wafers, Y=0.9"),
    ]
    results = evaluate_many(operating_points, policy=policy,
                            diagnostics=diagnostics)
    priced = ", ".join(
        f"{r.scenario.label}: ${r.die_cost_usd:.0f}/die" if r.ok
        else f"{r.scenario.label}: n/a" for r in results)
    lines.append(f"\nScenario facade (10M tx, 0.18 um, s_d=300, "
                 f"{results[0].backend} backend): {priced}")

    def fig4_opt(n_wafers: float, yield_fraction: float) -> str:
        scenario = Scenario(n_transistors=1e7, feature_um=0.18,
                            n_wafers=n_wafers, yield_fraction=yield_fraction,
                            cost_per_cm2=8.0, model=PAPER_FIGURE4_MODEL)
        try:
            res = scenario.optimal_sd(
                retry=DEFAULT_RETRY_BUDGET if permissive else None)
        except ReproError as exc:
            if not permissive:
                raise
            if diagnostics is not None:
                diagnostics.append(Diagnostic.from_exception(
                    exc, where="optimize.optimum.optimal_sd", equation="4",
                    parameter="n_wafers", value=n_wafers))
            return "n/a"
        return f"{res.sd_opt:.0f}"

    fig4a = fig4_opt(5_000, 0.4)
    fig4b = fig4_opt(50_000, 0.9)
    lines.append(f"\nFigure 4 optima (10M tx, 0.18 um): "
                 f"s_d = {fig4a} at 5k wafers/Y=0.4 vs "
                 f"{fig4b} at 50k wafers/Y=0.9")
    lines.append("-> neither the smallest die nor maximum yield minimises "
                 "transistor cost (#3.1).")
    lines.append("\nFull regeneration: pytest benchmarks/ --benchmark-only "
                 "(artifacts in benchmarks/output/).")
    return "\n".join(lines)


def observability_sections(show_trace: bool, show_metrics: bool,
                           show_profile: bool) -> str:
    """Render the sections requested by the CLI flags from global state."""
    tracer = obs.get_tracer()
    sections = []
    if show_trace:
        header = f"trace: {len(tracer)} spans"
        if tracer.dropped:
            header += f" ({tracer.dropped} dropped)"
        sections.append(header + "\n" + "-" * 74 + "\n" + obs.format_span_tree())
    if show_metrics:
        sections.append("metrics\n" + "-" * 74 + "\n" + obs.format_metrics_table())
    if show_profile:
        sections.append("profile (per-span roll-up)\n" + "-" * 74 + "\n"
                        + obs.format_summary_table())
    return "\n\n".join(sections)


def masked_summary(diagnostics: list) -> str:
    """Render the ``--permissive`` masked-point summary section."""
    lines = [f"permissive mode: {len(diagnostics)} point(s) masked",
             "-" * 74]
    lines.extend(f"  - {diag}" for diag in diagnostics)
    return "\n".join(lines)


def _split_value_flag(argv: list[str], flag: str) -> tuple[list[str], str | None]:
    """Extract ``FLAG VALUE`` / ``FLAG=VALUE`` from the argv."""
    rest: list[str] = []
    value: str | None = None
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == flag:
            if i + 1 >= len(argv):
                raise DomainError(f"{flag} requires a value")
            value = argv[i + 1]
            i += 2
            continue
        if arg.startswith(flag + "="):
            value = arg.split("=", 1)[1]
            i += 1
            continue
        rest.append(arg)
        i += 1
    return rest, value


_USAGE = ("usage: python -m repro [report] [--trace] [--metrics] "
          "[--profile] [--permissive] [--telemetry DIR] [--history PATH]")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, telemetry_dir = _split_value_flag(argv, "--telemetry")
        argv, history_path = _split_value_flag(argv, "--history")
    except DomainError as exc:
        print(f"{exc}; {_USAGE}", file=sys.stderr)
        return 2
    flags = [a for a in argv if a.startswith("--")]
    positional = [a for a in argv if not a.startswith("--")]
    unknown = [f for f in flags if f not in _FLAGS]
    if unknown:
        print(f"unknown flag {unknown[0]!r}; {_USAGE}", file=sys.stderr)
        return 2
    if positional and positional[0] not in ("report",):
        print(f"unknown command {positional[0]!r}; usage: python -m repro [report]",
              file=sys.stderr)
        return 2
    permissive = "--permissive" in flags
    policy = ErrorPolicy.MASK if permissive else ErrorPolicy.RAISE
    diagnostics: list = []
    obs_flags = [f for f in flags if f != "--permissive"]
    if history_path is None:
        history_default = obs_history.default_history_path()
        if history_default is not None:
            history_path = str(history_default)
    try:
        if not obs_flags and telemetry_dir is None and history_path is None:
            text = build_report(policy=policy, diagnostics=diagnostics)
            extra = ""
        else:
            recorder = None
            with obs.enabled():
                obs.reset()
                if history_path is not None:
                    with obs_history.recording(history_path,
                                               "repro.report") as recorder:
                        text = build_report(policy=policy,
                                            diagnostics=diagnostics)
                else:
                    text = build_report(policy=policy, diagnostics=diagnostics)
            extra = observability_sections(
                "--trace" in flags, "--metrics" in flags, "--profile" in flags)
            if telemetry_dir is not None:
                paths = obs.write_snapshot(telemetry_dir)
                note = "telemetry snapshot: " + ", ".join(
                    str(paths[key]) for key in sorted(paths))
                extra = (extra + "\n\n" + note) if extra else note
            if recorder is not None and recorder.record is not None:
                note = (f"history: run #{recorder.record.run_id} "
                        f"-> {history_path}")
                extra = (extra + "\n\n" + note) if extra else note
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    if extra:
        print()
        print(extra)
    if permissive and diagnostics:
        print()
        print(masked_summary(diagnostics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
