"""Metric ingestion and registry merges are safe under many threads.

The serve layer shares one registry across request threads, and the
engine's block threads record spans and metrics concurrently: no update
may be lost.
"""

import threading

import pytest

from repro import obs
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestThreadSafety:
    """Concurrent ingestion from many threads loses no updates."""

    THREADS = 8
    PER_THREAD = 2_000

    def test_counter_hammer(self):
        obs.enable()
        barrier = threading.Barrier(self.THREADS)

        def work():
            barrier.wait()
            for _ in range(self.PER_THREAD):
                obs.inc("hammer_total", labels={"src": "thread"})

        threads = [threading.Thread(target=work)
                   for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        key = 'hammer_total{src="thread"}'
        assert obs.get_registry().counters[key].value == \
            float(self.THREADS * self.PER_THREAD)

    def test_mixed_instrument_hammer(self):
        obs.enable()
        reg = obs.get_registry()
        barrier = threading.Barrier(self.THREADS)

        def work(seed):
            barrier.wait()
            for i in range(self.PER_THREAD):
                obs.observe("hammer_latency", (seed + i) * 1e-6)
                obs.set_gauge("hammer_gauge", float(i))
                reg.sketch("hammer_sketch").observe((i + 1) * 1e-6)

        threads = [threading.Thread(target=work, args=(s,))
                   for s in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = self.THREADS * self.PER_THREAD
        assert reg.histograms["hammer_latency"].count == total
        assert reg.sketches["hammer_sketch"].count == total
        assert reg.gauges["hammer_gauge"].value == float(self.PER_THREAD - 1)

    def test_concurrent_merge_is_lossless(self):
        sources = []
        for i in range(self.THREADS):
            reg = MetricsRegistry()
            for _ in range(100):
                reg.counter("merge_total", {"part": "x"}).inc()
            sources.append(reg)
        target = MetricsRegistry()
        threads = [threading.Thread(target=target.merge, args=(src,))
                   for src in sources]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert target.counters['merge_total{part="x"}'].value == \
            float(self.THREADS * 100)
