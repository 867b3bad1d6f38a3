"""Guard: disabled instrumentation must cost (almost) nothing.

Compares a traced entry point against its unwrapped original
(``inspect.unwrap``, the body under every decorator) with tracing
globally off. The decorator's disabled path is a single
module-attribute load plus one branch, so the traced call should be
within a few percent of the bare call.

Call times drift from process to process and within one, so the two
are measured in pairs: bare and traced back to back, with the order
alternating from pair to pair, and the verdict is the median of the
per-pair ratios. Drift slower than one pair cancels out of its ratio.
The test skips itself when the bare series cannot even reproduce its
own baseline between its first and second half.
"""

import inspect
import statistics
import timeit

import pytest

from repro import obs
from repro.cost import PAPER_FIGURE4_MODEL
from repro.optimize import sd_sweep

#: Maximum tolerated relative overhead of the disabled-tracing path.
MAX_OVERHEAD = 0.05
#: Baseline jitter above which the measurement is declared meaningless.
MAX_NOISE = 0.10
#: Interleaved measurement repeats / calls per measurement.
REPEATS = 10
CALLS = 30
#: (bare, traced) measurement pairs whose ratios the median is taken of.
PAIRS = 20


@pytest.fixture(autouse=True)
def tracing_off():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def test_disabled_tracing_overhead_under_five_percent():
    bare = inspect.unwrap(sd_sweep)

    def run_traced():
        sd_sweep(PAPER_FIGURE4_MODEL, 1e7, 0.18, 5000.0, 0.4, 8.0)

    def run_bare():
        bare(PAPER_FIGURE4_MODEL, 1e7, 0.18, 5000.0, 0.4, 8.0)

    # Warm caches before measuring anything.
    run_traced()
    run_bare()

    bare_times: list[float] = []
    ratios: list[float] = []
    for pair in range(PAIRS):
        if pair % 2:
            traced_time = timeit.timeit(run_traced, number=CALLS)
            bare_time = timeit.timeit(run_bare, number=CALLS)
        else:
            bare_time = timeit.timeit(run_bare, number=CALLS)
            traced_time = timeit.timeit(run_traced, number=CALLS)
        bare_times.append(bare_time)
        ratios.append(traced_time / bare_time)

    half = PAIRS // 2
    noise = (abs(min(bare_times[:half]) - min(bare_times[half:]))
             / min(bare_times))
    if noise > MAX_NOISE:
        pytest.skip(f"timing too noisy to judge overhead ({noise:.1%} jitter)")

    overhead = statistics.median(ratios) - 1.0
    assert overhead < MAX_OVERHEAD, (
        f"disabled tracing costs {overhead:.1%} (median of {PAIRS} "
        f"paired ratios; bare {statistics.median(bare_times):.4f}s)")


def test_disabled_observe_duration_is_guard_only():
    """``observe_duration`` while disabled must be one global check.

    Interleaved (not paired) min-of-repeats protocol, compared against
    a same-shape no-op call; the generous 3x bound only trips if the
    guard pattern breaks (e.g. the sketch is created before the check).
    """

    def noop(name, seconds):
        return None

    def run_observed():
        for _ in range(500):
            obs.observe_duration("overhead.probe", 1e-3)

    def run_noop():
        for _ in range(500):
            noop("overhead.probe", 1e-3)

    run_observed()
    run_noop()

    noop_times: list[float] = []
    observed_times: list[float] = []
    for _ in range(REPEATS):
        noop_times.append(timeit.timeit(run_noop, number=5))
        observed_times.append(timeit.timeit(run_observed, number=5))

    half = REPEATS // 2
    noise = (abs(min(noop_times[:half]) - min(noop_times[half:]))
             / min(noop_times))
    if noise > 0.5:
        pytest.skip(f"timing too noisy to judge overhead ({noise:.1%} jitter)")

    ratio = min(observed_times) / min(noop_times)
    assert ratio < 3.0, (
        f"disabled observe_duration costs {ratio:.2f}x a no-op call")
    # And nothing must have been recorded while disabled.
    assert obs.get_registry().is_empty()
