"""Experiment ``obs_overhead`` — cost of the observability layer itself.

The obs contract (``docs/observability.md``) is that a disabled
tracer costs essentially nothing: ``enabled()`` is one global read,
``span()``/``observe_duration()`` return immediately, and model code
never pays for instrumentation it did not ask for. This micro-bench
measures those paths directly — the disabled guards, plus the enabled
:class:`repro.obs.DurationSketch.observe` hot loop that every span
exit now feeds — so a regression in the guard pattern shows up in the
perf gate like any model slowdown would.

Each measurement is min-of-repeats over a fixed-count loop, reported
as nanoseconds per call.
"""

import time

from repro import obs
from repro.obs import DurationSketch
from repro.report import format_table

#: Calls per timed loop — large enough that loop overhead amortises.
CALLS = 20_000
#: Timed repeats per path; min-of-repeats rejects scheduler noise.
REPEATS = 5


def _ns_per_call(fn) -> float:
    """Min-of-repeats wall time of ``fn`` (one loop), per call, in ns."""
    best = min(_timed(fn) for _ in range(REPEATS))
    return best / CALLS * 1e9


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _loop_enabled_check() -> None:
    for _ in range(CALLS):
        obs.enabled()


def _loop_disabled_span() -> None:
    for _ in range(CALLS):
        with obs.span("bench.noop"):
            pass


def _loop_disabled_observe_duration() -> None:
    for _ in range(CALLS):
        obs.observe_duration("bench.noop", 1e-3)


def _loop_sketch_observe() -> None:
    sketch = DurationSketch("bench.sketch")
    for i in range(CALLS):
        sketch.observe(1e-6 + i * 1e-9)


def _loop_disabled_labeled_inc() -> None:
    labels = {"backend": "numpy", "policy": "raise"}
    for _ in range(CALLS):
        obs.inc("bench_noop_total", labels=labels)


def _loop_enabled_labeled_inc() -> None:
    labels = {"backend": "numpy", "policy": "raise"}
    for _ in range(CALLS):
        obs.inc("bench_hot_total", labels=labels)


def _loop_disabled_history_note() -> None:
    for _ in range(CALLS):
        obs.note_evaluation("numpy", 1024)


def regenerate_overhead():
    obs.disable()
    rows = [
        ("obs.enabled() [disabled]", _ns_per_call(_loop_enabled_check)),
        ("obs.span() [disabled]", _ns_per_call(_loop_disabled_span)),
        ("obs.observe_duration() [disabled]",
         _ns_per_call(_loop_disabled_observe_duration)),
        ("obs.inc() labeled [disabled]",
         _ns_per_call(_loop_disabled_labeled_inc)),
        ("obs.note_evaluation() [disabled]",
         _ns_per_call(_loop_disabled_history_note)),
        ("DurationSketch.observe() [enabled]",
         _ns_per_call(_loop_sketch_observe)),
    ]
    obs.enable()
    try:
        rows.append(("obs.inc() labeled [enabled]",
                     _ns_per_call(_loop_enabled_labeled_inc)))
    finally:
        obs.disable()
        obs.reset()
    return rows


def test_obs_overhead(benchmark, save_artifact):
    rows = benchmark(regenerate_overhead)

    table = format_table(
        ["path", "ns/call"], rows, float_spec=".1f",
        title=f"Observability overhead (min of {REPEATS}x{CALLS} calls)")
    save_artifact("obs_overhead", table)

    costs = dict(rows)
    # The disabled paths are guard-only: generous absolute ceilings that
    # only a broken guard (e.g. allocating a span while disabled) can
    # breach, not timer jitter.
    assert costs["obs.enabled() [disabled]"] < 2_000
    assert costs["obs.observe_duration() [disabled]"] < 2_000
    assert costs["obs.span() [disabled]"] < 10_000
    # Labeled metrics keep the same disabled contract: one global read,
    # no label freezing.
    assert costs["obs.inc() labeled [disabled]"] < 2_000
    # The engine's history sink with no RunRecorder active: one module
    # global read, no store, no lock.
    assert costs["obs.note_evaluation() [disabled]"] < 2_000
    # The enabled sketch path is a log + dict update — well under 50µs.
    assert costs["DurationSketch.observe() [enabled]"] < 50_000
    # Enabled labeled inc: freeze + registry lookup + locked add. Loose
    # ceiling — this guards against pathological lock contention or
    # per-call metric allocation, not nanosecond drift.
    assert costs["obs.inc() labeled [enabled]"] < 50_000
