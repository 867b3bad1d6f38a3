"""Traffic engineering units: the token bucket.

The token bucket's contract is the 429 arithmetic: grants until the
burst is spent, then a seconds-to-wait figure that matches the refill
rate (tested with a fake clock, no sleeping).
"""

import pytest

from repro.errors import DomainError
from repro.serve import TokenBucket


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTokenBucket:
    def test_burst_then_throttle(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.1)  # one token at 10/s

    def test_refill_restores_grants(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=10.0, burst=1, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0
        clock.now += 0.1  # exactly one token refilled
        assert bucket.try_acquire() == 0.0

    def test_refill_caps_at_burst(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.now += 60.0  # a minute idle must not bank 6000 tokens
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_stats_count_grants_and_throttles(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        for _ in range(5):
            bucket.try_acquire()
        stats = bucket.stats()
        assert stats["granted"] == 2
        assert stats["throttled"] == 3

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError, match="rate"):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(DomainError, match="burst"):
            TokenBucket(rate=1.0, burst=0)
