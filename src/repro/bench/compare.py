"""The performance-regression gate: compare two bench reports.

A wall-time diff is only meaningful relative to the measurement noise,
so the gate derives a per-bench threshold from the repeats' MAD::

    noise     = mad_scale * 1.4826 * max(mad_base, mad_cur) / median_base
    threshold = max(min_rel, noise)

(1.4826 rescales a MAD to a normal-equivalent σ; ``mad_scale`` defaults
to 3, i.e. a 3σ band. :func:`repro.obs.history.mad_band` is this noise
model, shared with the drift detector.) A bench whose median moved
beyond the threshold in either direction is a **regression** or an
**improvement**; everything else is **within-noise**. Benches present
on only one side are reported (``new`` / ``missing``) but never fail
the gate — adding a bench must not break CI retroactively.

Exit-code contract (used by ``python -m repro.bench --compare``):
``ok`` is false iff at least one regression was detected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import DomainError
from ..obs.history import mad_band
from ..report.tables import format_table
from .schema import validate_report

__all__ = [
    "REGRESSION",
    "IMPROVEMENT",
    "WITHIN_NOISE",
    "NEW",
    "MISSING",
    "BenchVerdict",
    "BenchComparison",
    "compare_reports",
]

#: Verdict statuses, in report severity order.
REGRESSION = "regression"
IMPROVEMENT = "improvement"
WITHIN_NOISE = "within-noise"
NEW = "new"
MISSING = "missing"

#: Floor for a baseline median, so ratio math never divides by zero.
_MIN_MEDIAN = 1e-9


@dataclass(frozen=True)
class BenchVerdict:
    """The gate's judgement on one bench.

    ``ratio`` is ``median_current / median_baseline`` (NaN when either
    side is absent); ``threshold`` is the relative band the ratio had
    to leave for a non-noise verdict.
    """

    name: str
    status: str
    ratio: float
    baseline_median: float
    current_median: float
    threshold: float

    def describe(self) -> str:
        """One-line human summary (used in failure output)."""
        if self.status in (NEW, MISSING):
            return f"{self.name}: {self.status}"
        return (f"{self.name}: {self.status} "
                f"({self.ratio:.2f}x vs baseline, "
                f"threshold ±{self.threshold:.0%})")


@dataclass(frozen=True)
class BenchComparison:
    """Every verdict of one baseline/current comparison."""

    verdicts: tuple[BenchVerdict, ...]

    @property
    def regressions(self) -> tuple[BenchVerdict, ...]:
        """The verdicts that fail the gate."""
        return tuple(v for v in self.verdicts if v.status == REGRESSION)

    @property
    def ok(self) -> bool:
        """Whether the gate passes (no regression)."""
        return not self.regressions

    def counts(self) -> dict[str, int]:
        """Status → verdict count (zero-count statuses included)."""
        out = {s: 0 for s in (REGRESSION, IMPROVEMENT, WITHIN_NOISE, NEW,
                              MISSING)}
        for verdict in self.verdicts:
            out[verdict.status] += 1
        return out

    def format(self) -> str:
        """The comparison as an aligned text table plus a summary line."""
        rows = []
        for v in self.verdicts:
            rows.append((
                v.name, v.status,
                "" if math.isnan(v.baseline_median) else v.baseline_median * 1e3,
                "" if math.isnan(v.current_median) else v.current_median * 1e3,
                "" if math.isnan(v.ratio) else f"{v.ratio:.3f}",
                f"±{v.threshold:.0%}" if v.threshold else "",
            ))
        table = format_table(
            ["bench", "verdict", "base_ms", "cur_ms", "ratio", "band"],
            rows, float_spec=".3f", title="perf-regression gate")
        counts = self.counts()
        summary = ", ".join(f"{n} {s}" for s, n in counts.items() if n)
        tail = "gate: FAIL" if not self.ok else "gate: ok"
        return f"{table}\n\n{summary or 'no benches compared'}\n{tail}"


def _verdict_for(name: str, base_row: dict, cur_row: dict,
                 min_rel: float, mad_scale: float) -> BenchVerdict:
    base_median = float(base_row["median"])
    cur_median = float(cur_row["median"])
    denom = max(base_median, _MIN_MEDIAN)
    noise = mad_band(max(float(base_row["mad"]), float(cur_row["mad"])),
                     mad_scale) / denom
    threshold = max(min_rel, noise)
    ratio = cur_median / denom
    if ratio > 1.0 + threshold:
        status = REGRESSION
    elif ratio < 1.0 - threshold:
        status = IMPROVEMENT
    else:
        status = WITHIN_NOISE
    return BenchVerdict(name=name, status=status, ratio=ratio,
                        baseline_median=base_median,
                        current_median=cur_median, threshold=threshold)


def compare_reports(baseline: dict, current: dict, *,
                    min_rel: float = 0.20,
                    mad_scale: float = 3.0) -> BenchComparison:
    """Judge ``current`` against ``baseline`` (both schema documents).

    Parameters
    ----------
    baseline / current:
        Parsed report documents (validated here — callers can pass the
        output of :func:`repro.bench.schema.load_report` or a dict
        built in a test).
    min_rel:
        Minimum relative change ever considered significant; absorbs
        machine-level drift the MAD of a single run cannot see.
    mad_scale:
        Width of the noise band in MAD-derived sigmas.
    """
    if not 0.0 <= min_rel < 10.0:
        raise DomainError(f"min_rel must be in [0, 10); got {min_rel}")
    if mad_scale <= 0.0:
        raise DomainError(f"mad_scale must be > 0; got {mad_scale}")
    validate_report(baseline, where="baseline report")
    validate_report(current, where="current report")
    base_benches = baseline["benches"]
    cur_benches = current["benches"]
    verdicts = []
    for name in sorted(set(base_benches) | set(cur_benches)):
        base_row = base_benches.get(name)
        cur_row = cur_benches.get(name)
        if base_row is None:
            verdicts.append(BenchVerdict(
                name=name, status=NEW, ratio=math.nan,
                baseline_median=math.nan,
                current_median=float(cur_row["median"]), threshold=0.0))
        elif cur_row is None:
            verdicts.append(BenchVerdict(
                name=name, status=MISSING, ratio=math.nan,
                baseline_median=float(base_row["median"]),
                current_median=math.nan, threshold=0.0))
        else:
            verdicts.append(_verdict_for(name, base_row, cur_row,
                                         min_rel, mad_scale))
    return BenchComparison(verdicts=tuple(verdicts))
