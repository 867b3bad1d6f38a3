"""Persistent run history: provenance-stamped telemetry across runs.

Every other observability surface in this package is *amnesiac*: spans,
metrics, and sketches live in process-local state and evaporate at
exit, so a regression in a counter or a span's p99 between
yesterday's run and today's is invisible. This module is
the longitudinal memory — a SQLite-backed store where each instrumented
run (the CLI report, ``python -m repro.bench``, engine sweeps) appends
one **run record**: provenance (git sha, python, platform, backend,
constants version, wall time) plus the full telemetry payload (the
labeled-metric registry in its :meth:`~repro.obs.metrics.
MetricsRegistry.to_dict` wire format and merged
:class:`~repro.obs.perf.DurationSketch` percentiles per span name).

Three layers on top of the store:

* a **query layer** — :meth:`HistoryStore.runs` /
  :meth:`~HistoryStore.latest` / :meth:`~HistoryStore.series` serve
  typed :class:`RunRecord` / :class:`SeriesPoint` records (never raw
  rows), filterable by command, git sha, and backend;
* a **drift detector** — :func:`detect_drift` extends the MAD-banded
  noise logic of :mod:`repro.bench.compare` to *any* stored series:
  the latest value is compared against the trailing-window median with
  a band of ``max(min_rel·|median|, mad_scale·1.4826·MAD)``, and every
  departure becomes a :class:`~repro.robust.policy.Diagnostic` under
  the standard RAISE/MASK/COLLECT policies;
* **trend reporting** — :func:`format_trend_table` (text, with unicode
  sparklines) and :func:`render_html_dashboard` (one self-contained
  HTML file, inline SVG sparklines per series, drift flags
  highlighted, provenance footer), both behind ``python -m repro.obs
  report``.

The on-disk layout is schema-versioned (``repro-history/1``, tracked
in SQLite's ``user_version`` pragma) with migration-on-open: opening a
database written by an older layout upgrades it in place; a database
from a *newer* layout raises :class:`~repro.errors.DataError` instead
of guessing. Writes are atomic single-writer transactions (``BEGIN
IMMEDIATE`` under a process-local lock), so concurrent readers — the
report CLI, a CI drift check — never observe a torn record.

Recording is opt-in and costs nothing when idle: the engine's history
sink (:func:`repro.obs.telemetry.note_evaluation`) is one module-global
read unless a :class:`RunRecorder` is active, mirroring the
disabled-observability contract. Everything here is stdlib-only (``sqlite3``, ``json``), so
history works in deployments without NumPy.
"""

from __future__ import annotations

import hashlib
import html as _html
import json
import math
import os
import platform as _platform
import sqlite3
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import DataError, DomainError
from ..robust.policy import Diagnostic, DiagnosticLog, ErrorPolicy
from . import metrics as _metrics
from . import telemetry as _telemetry
from .metrics import MetricsRegistry, metric_key

__all__ = [
    "HISTORY_SCHEMA_ID",
    "HISTORY_SCHEMA_VERSION",
    "DriftReport",
    "DriftVerdict",
    "HistoryStore",
    "RunRecord",
    "RunRecorder",
    "SeriesPoint",
    "constants_version",
    "default_history_path",
    "detect_drift",
    "flatten_samples",
    "format_trend_table",
    "git_sha",
    "mad_band",
    "recording",
    "render_html_dashboard",
    "run_environment",
    "write_html_dashboard",
]

#: Current on-disk schema identifier (bump together with the version).
HISTORY_SCHEMA_ID = "repro-history/1"
#: Current ``PRAGMA user_version`` value the store migrates up to.
HISTORY_SCHEMA_VERSION = 1

#: Environment variable naming the default history database path.
HISTORY_ENV_VAR = "REPRO_HISTORY"

#: MAD → normal-σ scale factor.
_MAD_TO_SIGMA = 1.4826

#: Unicode block ramp for text sparklines.
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

_GIT_SHA: str | None = None
_CONSTANTS_VERSION: str | None = None


def git_sha() -> str:
    """Short git SHA of this checkout, cached; ``"unknown"`` outside git.

    Anchored at the package directory (not the process CWD), so a
    server or tool invoked from elsewhere still reports the checkout
    it is running from.
    """
    global _GIT_SHA
    if _GIT_SHA is None:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10,
                cwd=str(Path(__file__).resolve().parent))
            sha = out.stdout.strip()
            _GIT_SHA = sha if out.returncode == 0 and sha else "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA = "unknown"
    return _GIT_SHA


def constants_version() -> str:
    """Content fingerprint of the paper-constant calibration, cached.

    A short SHA-256 over every ``(alias, symbol, value)`` triple in
    :data:`repro.constants.PAPER_CONSTANT_ALIASES` — two runs share a
    ``constants_version`` iff they evaluated under the same eq. (6)
    calibration and Figure-3 anchors, which is exactly the provenance
    a cross-run cost comparison needs.
    """
    global _CONSTANTS_VERSION
    if _CONSTANTS_VERSION is None:
        from .. import constants as _constants
        digest = hashlib.sha256()
        for alias in sorted(_constants.PAPER_CONSTANT_ALIASES):
            record = _constants.PAPER_CONSTANT_ALIASES[alias]
            digest.update(
                f"{alias}={record.symbol}:{record.value!r}\n".encode())
        _CONSTANTS_VERSION = digest.hexdigest()[:12]
    return _CONSTANTS_VERSION


def run_environment() -> dict:
    """Provenance of the current process: git/python/platform/constants."""
    return {
        "git_sha": git_sha(),
        "python": _platform.python_version(),
        "platform": _platform.platform(),
        "constants_version": constants_version(),
    }


@dataclass(frozen=True)
class RunRecord:
    """One stored run: provenance plus its full telemetry payload.

    Attributes
    ----------
    run_id:
        The store-assigned integer id (monotonically increasing).
    started:
        ISO-8601 UTC timestamp of the run start.
    command:
        What produced the record (``"repro.report"``, ``"repro.bench"``,
        a sweep name, ...).
    git_sha / python / platform / constants_version:
        The provenance stamp (see :func:`run_environment`).
    backend:
        Engine backend the run resolved to (``"numpy"``/``"python"``,
        or ``""`` when not applicable).
    wall_time_s:
        Run wall time in seconds.
    metrics:
        The labeled-metric registry snapshot in the
        :meth:`~repro.obs.metrics.MetricsRegistry.to_dict` wire format.
    sketches:
        Span name → merged duration-sketch summary (count/total/min/
        max/p50/p90/p99 plus the sparse bucket state).
    samples:
        The flattened scalar series extracted from the payload — what
        :meth:`HistoryStore.series` and :func:`detect_drift` read.
    """

    run_id: int
    started: str
    command: str
    git_sha: str
    python: str
    platform: str
    backend: str
    constants_version: str
    wall_time_s: float
    metrics: dict = field(default_factory=dict)
    sketches: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)

    def registry(self) -> MetricsRegistry:
        """Rebuild the run's metric registry from the stored wire format."""
        return MetricsRegistry.from_dict(self.metrics)


@dataclass(frozen=True)
class SeriesPoint:
    """One run's value of one stored series, with its provenance."""

    run_id: int
    started: str
    command: str
    git_sha: str
    backend: str
    value: float


def _sketch_payload(sketch) -> dict:
    """One duration sketch as its JSON-safe stored summary."""
    pct = sketch.percentiles()
    return {
        "count": sketch.count,
        "total": sketch.total,
        "min": sketch.min if math.isfinite(sketch.min) else None,
        "max": sketch.max if math.isfinite(sketch.max) else None,
        "p50": None if math.isnan(pct["p50"]) else pct["p50"],
        "p90": None if math.isnan(pct["p90"]) else pct["p90"],
        "p99": None if math.isnan(pct["p99"]) else pct["p99"],
        "buckets": {str(i): n for i, n in sorted(sketch.buckets.items())},
    }


def flatten_samples(registry: MetricsRegistry) -> dict[str, float]:
    """Extract the scalar series of one run from a registry snapshot.

    Counters and gauges sample under their full series key; histograms
    contribute ``<key>:mean`` and ``<key>:count``; duration sketches
    contribute ``<name>:p50``/``:p90``/``:p99``/``:count``. NaN values
    are dropped — a NaN can never sit inside a drift band anyway.
    """
    samples: dict[str, float] = {}
    for key, counter in registry.counters.items():
        samples[key] = float(counter.value)
    for key, gauge in registry.gauges.items():
        if not math.isnan(gauge.value):
            samples[key] = float(gauge.value)
    for key, hist in registry.histograms.items():
        if hist.count:
            samples[f"{key}:mean"] = float(hist.mean)
        samples[f"{key}:count"] = float(hist.count)
    for name, sketch in registry.sketches.items():
        if not sketch.count:
            continue
        pct = sketch.percentiles()
        samples[f"{name}:p50"] = float(pct["p50"])
        samples[f"{name}:p90"] = float(pct["p90"])
        samples[f"{name}:p99"] = float(pct["p99"])
        samples[f"{name}:count"] = float(sketch.count)
    return samples


class HistoryStore:
    """SQLite-backed run-history store (schema ``repro-history/1``).

    Opening creates or migrates the database in place (see the module
    docstring); every write is one atomic single-writer transaction.
    The store is a context manager — ``with HistoryStore(path) as
    store: ...`` closes the connection on exit.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        try:
            self._conn = sqlite3.connect(
                str(self.path), timeout=30.0, check_same_thread=False)
        except sqlite3.Error as exc:
            raise DataError(
                f"cannot open history database {self.path}: {exc}") from exc
        self._conn.row_factory = sqlite3.Row
        self._migrate()

    # -- schema ----------------------------------------------------------

    def _migrate(self) -> None:
        """Bring the database to :data:`HISTORY_SCHEMA_VERSION` in place."""
        with self._lock:
            try:
                version = int(self._conn.execute(
                    "PRAGMA user_version").fetchone()[0])
            except sqlite3.DatabaseError as exc:
                raise DataError(
                    f"{self.path} is not a history database: {exc}") from exc
            if version > HISTORY_SCHEMA_VERSION:
                raise DataError(
                    f"{self.path} uses history schema version {version}, "
                    f"newer than this library's {HISTORY_SCHEMA_VERSION} "
                    f"({HISTORY_SCHEMA_ID}); upgrade the library instead "
                    "of rewriting the store")
            cur = self._conn.cursor()
            cur.execute("BEGIN IMMEDIATE")
            try:
                if version < 1:
                    self._create_v1(cur)
                cur.execute(f"PRAGMA user_version = {HISTORY_SCHEMA_VERSION}")
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise

    @staticmethod
    def _create_v1(cur) -> None:
        """The ``repro-history/1`` layout (fresh databases only)."""
        cur.execute("""
            CREATE TABLE IF NOT EXISTS meta (
                key TEXT PRIMARY KEY,
                value TEXT NOT NULL)
            """)
        cur.execute("""
            CREATE TABLE IF NOT EXISTS runs (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                started TEXT NOT NULL,
                command TEXT NOT NULL,
                git_sha TEXT NOT NULL DEFAULT 'unknown',
                python TEXT NOT NULL DEFAULT '',
                platform TEXT NOT NULL DEFAULT '',
                backend TEXT NOT NULL DEFAULT '',
                constants_version TEXT NOT NULL DEFAULT '',
                wall_time_s REAL NOT NULL DEFAULT 0.0,
                payload TEXT NOT NULL)
            """)
        cur.execute("""
            CREATE TABLE IF NOT EXISTS samples (
                run_id INTEGER NOT NULL REFERENCES runs(id)
                    ON DELETE CASCADE,
                key TEXT NOT NULL,
                value REAL NOT NULL)
            """)
        cur.execute("CREATE INDEX IF NOT EXISTS samples_key "
                    "ON samples (key, run_id)")
        cur.execute("CREATE INDEX IF NOT EXISTS runs_command "
                    "ON runs (command, id)")
        cur.execute("INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    ("schema", HISTORY_SCHEMA_ID))

    # -- writes ----------------------------------------------------------

    def record_run(self, command: str, *, wall_time_s: float,
                   backend: str = "", registry: MetricsRegistry | None = None,
                   environment: dict | None = None,
                   started: str | None = None,
                   extra_samples: dict | None = None) -> RunRecord:
        """Append one provenance-stamped run record; returns it typed.

        ``registry`` defaults to a snapshot of the process-global
        registry with engine-side state bridged in
        (:func:`~repro.obs.telemetry.bridge_engine_metrics`), so the
        block-thread setting is captured even when live metrics were off.
        ``extra_samples`` lets a producer add derived scalar series (the
        bench runner stores per-bench medians this way) without
        inventing registry metrics for them.
        """
        if not command:
            raise DomainError("record_run: command must be a non-empty string")
        wall_time_s = float(wall_time_s)
        if not math.isfinite(wall_time_s) or wall_time_s < 0:
            raise DomainError(
                f"record_run: wall_time_s must be finite and >= 0, "
                f"got {wall_time_s}")
        if registry is None:
            registry = MetricsRegistry.from_dict(
                _metrics.get_registry().to_dict())
            _telemetry.bridge_engine_metrics(registry)
        env = run_environment() if environment is None else dict(environment)
        if started is None:
            started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        samples = flatten_samples(registry)
        samples["run:wall_time_s"] = wall_time_s
        for key, value in (extra_samples or {}).items():
            value = float(value)
            if math.isfinite(value):
                samples[str(key)] = value
        sketches = {name: _sketch_payload(s)
                    for name, s in sorted(registry.sketches.items())}
        payload = json.dumps({
            "metrics": registry.to_dict(),
            "sketches": sketches,
            "samples": samples,
        }, sort_keys=True)
        with self._lock:
            cur = self._conn.cursor()
            cur.execute("BEGIN IMMEDIATE")
            try:
                cur.execute(
                    "INSERT INTO runs (started, command, git_sha, python, "
                    "platform, backend, constants_version, wall_time_s, "
                    "payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    (started, command, env.get("git_sha", "unknown"),
                     env.get("python", ""), env.get("platform", ""),
                     backend, env.get("constants_version", ""),
                     wall_time_s, payload))
                run_id = int(cur.lastrowid)
                cur.executemany(
                    "INSERT INTO samples (run_id, key, value) VALUES (?, ?, ?)",
                    [(run_id, key, value)
                     for key, value in sorted(samples.items())])
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return RunRecord(
            run_id=run_id, started=started, command=command,
            git_sha=env.get("git_sha", "unknown"),
            python=env.get("python", ""), platform=env.get("platform", ""),
            backend=backend,
            constants_version=env.get("constants_version", ""),
            wall_time_s=wall_time_s, metrics=registry.to_dict(),
            sketches=sketches, samples=samples)

    # -- queries ---------------------------------------------------------

    @staticmethod
    def _row_to_record(row) -> RunRecord:
        try:
            payload = json.loads(row["payload"])
        except (TypeError, json.JSONDecodeError) as exc:
            raise DataError(
                f"history run {row['id']} carries a corrupt payload: "
                f"{exc}") from exc
        # Keys no longer written (older runs carry ``supervision``) are
        # ignored, so stores from earlier layouts of the payload load.
        return RunRecord(
            run_id=int(row["id"]), started=row["started"],
            command=row["command"], git_sha=row["git_sha"],
            python=row["python"], platform=row["platform"],
            backend=row["backend"],
            constants_version=row["constants_version"],
            wall_time_s=float(row["wall_time_s"]),
            metrics=payload.get("metrics", {}),
            sketches=payload.get("sketches", {}),
            samples=payload.get("samples", {}))

    @staticmethod
    def _filters(command, git_sha_filter, backend) -> tuple[str, list]:
        clauses, params = [], []
        if command is not None:
            clauses.append("command = ?")
            params.append(command)
        if git_sha_filter is not None:
            clauses.append("git_sha = ?")
            params.append(git_sha_filter)
        if backend is not None:
            clauses.append("backend = ?")
            params.append(backend)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, params

    def runs(self, *, command: str | None = None,
             git_sha: str | None = None, backend: str | None = None,
             limit: int | None = None) -> list[RunRecord]:
        """Stored runs, oldest first, optionally filtered.

        ``limit`` keeps only the *newest* N matching runs (still
        returned oldest-first, so series math reads left to right).
        """
        where, params = self._filters(command, git_sha, backend)
        sql = f"SELECT * FROM runs{where} ORDER BY id DESC"
        if limit is not None:
            if limit < 1:
                raise DomainError(f"runs: limit must be >= 1, got {limit}")
            sql += " LIMIT ?"
            params = params + [int(limit)]
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [self._row_to_record(row) for row in reversed(rows)]

    def latest(self, n: int = 1, *, command: str | None = None,
               git_sha: str | None = None,
               backend: str | None = None) -> list[RunRecord]:
        """The newest ``n`` matching runs, oldest first."""
        return self.runs(command=command, git_sha=git_sha, backend=backend,
                         limit=n)

    def series(self, metric: str, labels=None, *, field: str | None = None,
               command: str | None = None, git_sha: str | None = None,
               backend: str | None = None,
               limit: int | None = None) -> list[SeriesPoint]:
        """One stored series across runs, oldest first, as typed points.

        ``metric``/``labels`` follow the registry key convention
        (``series("engine_points_total", {"backend": "numpy"})``);
        ``field`` selects a sub-sample of histograms and sketches
        (``series("engine.evaluate_grid", field="p99")``). Passing a
        pre-built sample key as ``metric`` (with ``labels=None`` and
        ``field=None``) also works — the query layer resolves exactly
        the keys :func:`flatten_samples` wrote.
        """
        key = metric_key(metric, labels)
        if field:
            key = f"{key}:{field}"
        where, params = self._filters(command, git_sha, backend)
        sql = (
            "SELECT runs.id AS id, runs.started AS started, "
            "runs.command AS command, runs.git_sha AS git_sha, "
            "runs.backend AS backend, samples.value AS value "
            "FROM samples JOIN runs ON runs.id = samples.run_id"
            + (where + " AND " if where else " WHERE ") + "samples.key = ?"
            " ORDER BY runs.id DESC")
        params = params + [key]
        if limit is not None:
            if limit < 1:
                raise DomainError(f"series: limit must be >= 1, got {limit}")
            sql += " LIMIT ?"
            params.append(int(limit))
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [SeriesPoint(run_id=int(r["id"]), started=r["started"],
                            command=r["command"], git_sha=r["git_sha"],
                            backend=r["backend"], value=float(r["value"]))
                for r in reversed(rows)]

    def series_keys(self, *, command: str | None = None,
                    backend: str | None = None) -> list[str]:
        """Every distinct sample key stored (optionally per command/backend)."""
        where, params = self._filters(command, None, backend)
        if where:
            sql = ("SELECT DISTINCT samples.key AS key FROM samples "
                   "JOIN runs ON runs.id = samples.run_id" + where
                   + " ORDER BY samples.key")
        else:
            sql = "SELECT DISTINCT key FROM samples ORDER BY key"
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [r["key"] for r in rows]

    def __len__(self) -> int:
        with self._lock:
            return int(self._conn.execute(
                "SELECT COUNT(*) FROM runs").fetchone()[0])

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "HistoryStore":
        """Enter: the store itself (opened in ``__init__``)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Exit: close the connection."""
        self.close()

    def __repr__(self) -> str:
        return f"HistoryStore({str(self.path)!r}, runs={len(self)})"


def default_history_path() -> Path | None:
    """The history database named by ``$REPRO_HISTORY``, if any."""
    path = os.environ.get(HISTORY_ENV_VAR, "").strip()
    return Path(path) if path else None


# -- run recording ---------------------------------------------------------

class RunRecorder:
    """Context manager that turns one code block into one run record.

    While active, the engine's sink
    (:func:`repro.obs.telemetry.note_evaluation`) feeds it per-
    ``evaluate_grid`` telemetry (evaluations and points),
    stored as ``history_*`` counters alongside the registry snapshot.
    The record is written on *clean* exit only — a run that died does
    not poison the trend series with a partial payload.
    """

    def __init__(self, store: HistoryStore, command: str, *,
                 backend: str = "", extra_samples: dict | None = None):
        self._store = store
        self._command = command
        self._backend = backend
        self._extra = dict(extra_samples or {})
        self._lock = threading.Lock()
        self._started_at = 0.0
        self._started_iso = ""
        self._evaluations = 0
        self._points = 0
        self.record: RunRecord | None = None

    def note(self, backend: str, points: int) -> None:
        """Fold one engine grid evaluation into the run (thread-safe)."""
        with self._lock:
            self._evaluations += 1
            self._points += int(points)
            if backend and not self._backend:
                self._backend = backend

    def __enter__(self) -> "RunRecorder":
        """Activate the recorder (one active recorder per process)."""
        if _telemetry.current_recorder() is not None:
            raise DomainError(
                "a history RunRecorder is already active; nest runs by "
                "recording them as separate commands instead")
        with self._lock:
            self._started_at = time.perf_counter()
            self._started_iso = time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        _telemetry.set_recorder(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Deactivate; write the run record when the block exited cleanly."""
        _telemetry.set_recorder(None)
        if exc_type is not None:
            return
        wall = time.perf_counter() - self._started_at
        registry = MetricsRegistry.from_dict(
            _metrics.get_registry().to_dict())
        _telemetry.bridge_engine_metrics(registry)
        registry.counter("history_grid_evaluations_total").inc(
            self._evaluations)
        registry.counter("history_grid_points_total").inc(self._points)
        with self._lock:
            self.record = self._store.record_run(
                self._command, wall_time_s=wall, backend=self._backend,
                registry=registry, started=self._started_iso,
                extra_samples=self._extra)


def recording(store: "HistoryStore | Path | str", command: str, *,
              backend: str = "",
              extra_samples: dict | None = None) -> RunRecorder:
    """Open (if needed) a store and return a :class:`RunRecorder` for it.

    The convenience entry the CLIs use::

        with obs.recording("runs.sqlite", "repro.report") as rec:
            ...   # engine evaluations are sunk into the run
        print(rec.record.run_id)
    """
    if not isinstance(store, HistoryStore):
        store = HistoryStore(store)
    return RunRecorder(store, command, backend=backend,
                       extra_samples=extra_samples)


# -- drift detection -----------------------------------------------------

#: Verdict statuses, in report severity order.
DRIFT = "drift"
OK = "ok"
INSUFFICIENT = "insufficient"


@dataclass(frozen=True)
class DriftVerdict:
    """The drift detector's judgement on one stored series.

    ``median``/``band`` describe the trailing window (the latest run
    excluded); ``status`` is ``"drift"`` when the latest value left the
    band, ``"ok"`` when it stayed inside, ``"insufficient"`` when fewer
    than ``min_runs`` points exist. ``direction`` is ``"high"`` /
    ``"low"`` for drifts, ``""`` otherwise.
    """

    key: str
    status: str
    latest: float
    median: float
    band: float
    window: int
    direction: str = ""

    def describe(self) -> str:
        """One-line human summary (used in CLI drift output)."""
        if self.status != DRIFT:
            return f"{self.key}: {self.status}"
        return (f"{self.key}: latest {self.latest:.6g} drifted {self.direction} "
                f"of trailing median {self.median:.6g} (band ±{self.band:.3g}, "
                f"window {self.window})")


@dataclass(frozen=True)
class DriftReport:
    """Every verdict of one drift check, plus the emitted diagnostics."""

    verdicts: tuple[DriftVerdict, ...]
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def flagged(self) -> tuple[DriftVerdict, ...]:
        """The verdicts whose series left their trailing band."""
        return tuple(v for v in self.verdicts if v.status == DRIFT)

    @property
    def ok(self) -> bool:
        """Whether no series drifted."""
        return not self.flagged

    def counts(self) -> dict[str, int]:
        """Status → verdict count (zero-count statuses included)."""
        out = {s: 0 for s in (DRIFT, OK, INSUFFICIENT)}
        for verdict in self.verdicts:
            out[verdict.status] += 1
        return out

    def format(self) -> str:
        """The drift check as a summary line plus per-drift detail lines."""
        counts = self.counts()
        lines = [", ".join(f"{n} {s}" for s, n in counts.items() if n)
                 or "no series checked"]
        for verdict in self.flagged:
            lines.append(f"  drift: {verdict.describe()}")
        lines.append("drift check: FLAGGED" if not self.ok
                     else "drift check: ok")
        return "\n".join(lines)


def mad_band(mad: float, mad_scale: float) -> float:
    """Noise half-width ``mad_scale·1.4826·MAD``: ``mad_scale`` sigmas.

    1.4826 rescales a median absolute deviation to a normal-equivalent
    σ. :func:`detect_drift` and the :mod:`repro.bench.compare`
    regression gate share this noise model.
    """
    return mad_scale * _MAD_TO_SIGMA * mad


def detect_drift(store: HistoryStore, *, keys=None, window: int = 10,
                 min_runs: int = 5, mad_scale: float = 3.0,
                 min_rel: float = 0.20, min_abs: float = 1e-12,
                 policy=ErrorPolicy.MASK, command: str | None = None,
                 backend: str | None = None) -> DriftReport:
    """Flag stored series whose latest value left the trailing MAD band.

    For each series (default: every key in the store) the latest value
    is compared against the trailing ``window`` runs before it: the
    band half-width is ``max(min_rel·|median|, min_abs,
    mad_scale·1.4826·MAD)`` — the same noise model as the
    :mod:`repro.bench.compare` regression gate, generalised to any
    series. Series with fewer than ``min_runs`` points are reported
    ``"insufficient"`` and never flagged, so a fresh store cannot
    cry wolf.

    Every flagged series emits a :class:`~repro.robust.policy.
    Diagnostic` under ``policy``: ``RAISE`` propagates a
    :class:`~repro.errors.DomainError` at the first drift, ``MASK``
    collects diagnostics onto the returned report, ``COLLECT`` raises
    one :class:`~repro.errors.CollectedErrors` carrying all of them
    after the full scan.
    """
    if window < 2:
        raise DomainError(f"detect_drift: window must be >= 2, got {window}")
    if min_runs < 3:
        raise DomainError(
            f"detect_drift: min_runs must be >= 3, got {min_runs}")
    if mad_scale <= 0:
        raise DomainError(
            f"detect_drift: mad_scale must be > 0, got {mad_scale}")
    if min_rel < 0:
        raise DomainError(
            f"detect_drift: min_rel must be >= 0, got {min_rel}")
    policy = ErrorPolicy.coerce(policy)
    if keys is None:
        keys = store.series_keys(command=command, backend=backend)
    log = DiagnosticLog(policy, "obs.history.detect_drift")
    verdicts: list[DriftVerdict] = []
    for key in keys:
        points = store.series(key, command=command, backend=backend)
        values = [p.value for p in points]
        if len(values) < min_runs:
            verdicts.append(DriftVerdict(
                key=key, status=INSUFFICIENT, latest=math.nan,
                median=math.nan, band=math.nan, window=0))
            continue
        trailing = values[-(window + 1):-1]
        latest = values[-1]
        median = statistics.median(trailing)
        mad = statistics.median([abs(v - median) for v in trailing])
        band = max(min_rel * abs(median), float(min_abs),
                   mad_band(mad, mad_scale))
        if abs(latest - median) > band:
            direction = "high" if latest > median else "low"
            verdict = DriftVerdict(
                key=key, status=DRIFT, latest=latest, median=median,
                band=band, window=len(trailing), direction=direction)
            verdicts.append(verdict)
            exc = DomainError(verdict.describe())
            if not log.capture(exc, parameter=key, value=latest,
                               index=points[-1].run_id):
                raise exc
        else:
            verdicts.append(DriftVerdict(
                key=key, status=OK, latest=latest, median=median,
                band=band, window=len(trailing)))
    diagnostics = log.finish()
    return DriftReport(verdicts=tuple(verdicts), diagnostics=diagnostics)


# -- trend reporting -----------------------------------------------------


def _sparkline(values: list[float]) -> str:
    """Unicode mini-chart of a series (empty string for < 2 points)."""
    if len(values) < 2:
        return ""
    lo, hi = min(values), max(values)
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi == lo:
        return _SPARK_BLOCKS[0] * len(values)
    scale = (len(_SPARK_BLOCKS) - 1) / (hi - lo)
    return "".join(
        _SPARK_BLOCKS[int(round((v - lo) * scale))] for v in values)


def _fmt(value: float) -> str:
    if math.isnan(value):
        return ""
    return f"{value:.6g}"


def format_trend_table(store: HistoryStore, *, keys=None, last: int = 12,
                       drift: DriftReport | None = None,
                       command: str | None = None,
                       backend: str | None = None) -> str:
    """The stored series as an aligned text trend table.

    One row per series: run count, latest value, trailing median/band
    (from ``drift`` when given), a unicode sparkline over the last
    ``last`` runs, and the drift verdict.
    """
    from ..report.tables import format_table
    if last < 2:
        raise DomainError(f"format_trend_table: last must be >= 2, got {last}")
    if keys is None:
        keys = store.series_keys(command=command, backend=backend)
    by_key = {} if drift is None else {v.key: v for v in drift.verdicts}
    rows = []
    for key in keys:
        points = store.series(key, command=command, backend=backend,
                              limit=last)
        values = [p.value for p in points]
        if not values:
            continue
        verdict = by_key.get(key)
        rows.append((
            key, len(values), _fmt(values[-1]),
            "" if verdict is None else _fmt(verdict.median),
            "" if verdict is None else _fmt(verdict.band),
            _sparkline(values),
            "" if verdict is None else verdict.status,
        ))
    if not rows:
        return "(history store holds no series)"
    return format_table(
        ["series", "n", "latest", "median", "band", "trend", "verdict"],
        rows, float_spec=".6g",
        title=f"run history ({len(store)} runs, last {last} shown)")


def _svg_sparkline(values: list[float], *, width: int = 220,
                   height: int = 44, flagged: bool = False) -> str:
    """One series as an inline SVG sparkline (last point dotted)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    pad = 4.0
    span = (hi - lo) or 1.0
    n = len(values)
    step = (width - 2 * pad) / max(n - 1, 1)
    coords = [
        (pad + i * step,
         height - pad - (v - lo) / span * (height - 2 * pad))
        for i, v in enumerate(values)]
    points = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
    stroke = "#c0392b" if flagged else "#2c6e91"
    last_x, last_y = coords[-1]
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
        f'<polyline fill="none" stroke="{stroke}" stroke-width="1.5" '
        f'points="{points}"/>'
        f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2.5" '
        f'fill="{stroke}"/></svg>')


_HTML_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1c2833; }
h1 { font-size: 1.4rem; } h1 small { color: #7f8c8d; font-weight: normal; }
table { border-collapse: collapse; width: 100%; font-size: 0.85rem; }
th, td { text-align: left; padding: 0.35rem 0.6rem;
         border-bottom: 1px solid #e5e8ea; vertical-align: middle; }
th { border-bottom: 2px solid #aab4bc; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
tr.drift td { background: #fdeceb; }
.badge { display: inline-block; border-radius: 3px; padding: 0 0.4rem;
         font-size: 0.75rem; color: #fff; background: #27ae60; }
.badge.drift { background: #c0392b; }
.badge.insufficient { background: #95a5a6; }
footer { margin-top: 1.5rem; color: #7f8c8d; font-size: 0.8rem;
         border-top: 1px solid #e5e8ea; padding-top: 0.6rem; }
code { background: #f4f6f7; padding: 0 0.2rem; }
"""


def render_html_dashboard(store: HistoryStore, *, keys=None, last: int = 60,
                          drift: DriftReport | None = None,
                          command: str | None = None,
                          backend: str | None = None,
                          title: str = "repro run history") -> str:
    """The store as one static, self-contained HTML dashboard.

    One table row per stored series — run count, latest value, value
    range, an inline SVG sparkline over the last ``last`` runs — with
    drift-flagged rows highlighted and badged, and a provenance footer
    (schema id, run count, latest run's git sha/backend/timestamp).
    No external assets: the page renders offline and survives being
    attached to a CI run as a single artifact file.
    """
    if keys is None:
        keys = store.series_keys(command=command, backend=backend)
    by_key = {} if drift is None else {v.key: v for v in drift.verdicts}
    rows = []
    for key in keys:
        points = store.series(key, command=command, backend=backend,
                              limit=last)
        values = [p.value for p in points]
        if not values:
            continue
        verdict = by_key.get(key)
        flagged = verdict is not None and verdict.status == DRIFT
        badge = ""
        if verdict is not None:
            badge = (f'<span class="badge {verdict.status}">'
                     f'{verdict.status}</span>')
        rows.append(
            f'<tr class="{"drift" if flagged else ""}">'
            f"<td><code>{_html.escape(key)}</code></td>"
            f'<td class="num">{len(values)}</td>'
            f'<td class="num">{_html.escape(_fmt(values[-1]))}</td>'
            f'<td class="num">{_html.escape(_fmt(min(values)))} … '
            f'{_html.escape(_fmt(max(values)))}</td>'
            f"<td>{_svg_sparkline(values, flagged=flagged)}</td>"
            f"<td>{badge}</td></tr>")
    latest_runs = store.latest(1)
    provenance = ""
    if latest_runs:
        run = latest_runs[-1]
        provenance = (
            f"latest run #{run.run_id} — <code>{_html.escape(run.command)}"
            f"</code> at {_html.escape(run.started)}, git "
            f"<code>{_html.escape(run.git_sha)}</code>, backend "
            f"<code>{_html.escape(run.backend or 'n/a')}</code>, constants "
            f"<code>{_html.escape(run.constants_version or 'n/a')}</code> · ")
    generated = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    n_flagged = 0 if drift is None else len(drift.flagged)
    subtitle = (f"{len(store)} runs · {len(rows)} series"
                + (f" · {n_flagged} drift flag(s)" if drift is not None
                   else ""))
    body = "\n".join(rows) if rows else (
        '<tr><td colspan="6">(history store holds no series)</td></tr>')
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{_html.escape(title)}</title>
<style>{_HTML_STYLE}</style>
</head>
<body>
<h1>{_html.escape(title)} <small>{subtitle}</small></h1>
<table>
<thead><tr><th>series</th><th>n</th><th>latest</th><th>range</th>
<th>trend (last {last})</th><th>verdict</th></tr></thead>
<tbody>
{body}
</tbody>
</table>
<footer>{provenance}schema <code>{HISTORY_SCHEMA_ID}</code> ·
store <code>{_html.escape(str(store.path))}</code> ·
generated {generated} by repro.obs.history</footer>
</body>
</html>
"""


def write_html_dashboard(path, store: HistoryStore, **kwargs) -> Path:
    """Render :func:`render_html_dashboard` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_html_dashboard(store, **kwargs), encoding="utf-8")
    return path
