"""Content-addressed memo cache for repeated grid evaluations.

Keys are SHA-256 digests over the *content* of an evaluation: the
kernel's identity token (model configuration plus fixed operating
point) and the raw bytes of the grid array. Two calls that would
compute the same numbers hit the same entry regardless of object
identity — and any change to a model parameter or a single grid value
changes the key.

Only ``RAISE``-policy evaluations are cached: MASK/COLLECT runs carry
per-point diagnostics whose side effects (``robust.policy.*`` metric
increments, span attributes) must fire on every call, and the engine
also bypasses the cache while tracing is enabled so ``repro.obs`` spans
reflect real work. Entries are LRU-evicted beyond ``max_entries``;
stored arrays are copied on the way in and out, so callers can mutate
results freely.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from ..obs import metrics as _obs_metrics

__all__ = ["CacheStats", "GridCache", "grid_cache", "configure", "clear",
           "stats"]

#: Default LRU capacity (distinct grid evaluations kept alive).
_DEFAULT_MAX_ENTRIES = 128


@dataclass(frozen=True)
class CacheStats:
    """Counters for one cache: hits, misses, evictions, live entries."""

    hits: int
    misses: int
    evictions: int
    entries: int
    max_entries: int

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


def _feed(digest, part) -> None:
    """Hash one token part with an unambiguous type tag."""
    if part is None:
        digest.update(b"\x00N")
    elif isinstance(part, bool):
        digest.update(b"\x00B1" if part else b"\x00B0")
    elif isinstance(part, float):
        digest.update(b"\x00F" + struct.pack("<d", part))
    elif isinstance(part, int):
        digest.update(b"\x00I" + str(part).encode("ascii"))
    elif isinstance(part, str):
        encoded = part.encode("utf-8")
        digest.update(b"\x00S" + str(len(encoded)).encode("ascii") + b":" + encoded)
    elif isinstance(part, bytes):
        digest.update(b"\x00Y" + str(len(part)).encode("ascii") + b":" + part)
    elif isinstance(part, (tuple, list)):
        digest.update(b"\x00T" + str(len(part)).encode("ascii"))
        for item in part:
            _feed(digest, item)
    elif isinstance(part, np.ndarray):
        arr = np.ascontiguousarray(part)
        digest.update(b"\x00A" + str(arr.dtype).encode("ascii")
                      + str(arr.shape).encode("ascii"))
        digest.update(arr.tobytes())
    else:
        raise DomainError(
            f"cannot build a cache key from {type(part).__name__!r}; "
            "kernel tokens must be made of scalars, strings, tuples and arrays")


class GridCache:
    """A small content-addressed LRU mapping evaluation keys to arrays."""

    def __init__(self, max_entries: int = _DEFAULT_MAX_ENTRIES):
        if max_entries < 0:
            raise DomainError(f"max_entries must be >= 0; got {max_entries}")
        self.max_entries = max_entries
        self._entries: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything at all (capacity > 0)."""
        return self.max_entries > 0

    @staticmethod
    def key(token, grid: np.ndarray) -> bytes:
        """Content digest of ``(token, grid)`` — the cache address."""
        digest = hashlib.sha256()
        _feed(digest, token)
        _feed(digest, grid)
        return digest.digest()

    def get(self, key: bytes) -> np.ndarray | None:
        """The cached values for ``key`` (a fresh copy), or ``None``."""
        values = self._entries.get(key)
        if values is None:
            self._misses += 1
            _obs_metrics.inc("engine_cache_events_total",
                             labels={"event": "miss"})
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        _obs_metrics.inc("engine_cache_events_total", labels={"event": "hit"})
        return values.copy()

    def put(self, key: bytes, values: np.ndarray) -> None:
        """Store a private copy of ``values``, evicting the LRU entry."""
        if not self.enabled:
            return
        self._entries[key] = np.array(values, copy=True)
        self._entries.move_to_end(key)
        self._evict_over_capacity()

    def _evict_over_capacity(self) -> int:
        """Drop LRU entries beyond capacity; returns how many were evicted."""
        evicted = 0
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1
            evicted += 1
        if evicted:
            _obs_metrics.inc("engine_cache_events_total", evicted,
                             labels={"event": "eviction"})
        return evicted

    def resize(self, max_entries: int) -> int:
        """Change capacity (0 disables); evict LRU entries beyond it.

        The eviction count flows through the cache's own counters (and
        the gated ``engine_cache_events_total`` metric), so stats stay
        consistent however the resize happens. Returns the number of
        entries evicted.
        """
        if max_entries < 0:
            raise DomainError(f"max_entries must be >= 0; got {max_entries}")
        self.max_entries = max_entries
        return self._evict_over_capacity()

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def stats(self) -> CacheStats:
        """A snapshot of the hit/miss/eviction counters."""
        return CacheStats(hits=self._hits, misses=self._misses,
                          evictions=self._evictions,
                          entries=len(self._entries),
                          max_entries=self.max_entries)


#: The process-wide cache :func:`repro.engine.evaluate_grid` consults.
grid_cache = GridCache()


def configure(max_entries: int) -> None:
    """Resize the global cache (0 disables it); existing entries are kept
    up to the new capacity, evicting least-recently-used beyond it."""
    grid_cache.resize(max_entries)


def clear() -> None:
    """Empty the global cache and reset its counters."""
    grid_cache.clear()


def stats() -> CacheStats:
    """Counters of the global cache."""
    return grid_cache.stats()
