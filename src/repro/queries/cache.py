"""Query-result LRU cache shared by the serving handles.

Serving workloads are skewed: a small set of hot nodes receives most of
the traffic, so memoizing query answers pays for itself long before the
grammar-side evaluators do.  Both :class:`repro.api.CompressedGraph`
and :class:`repro.sharding.ShardedCompressedGraph` embed one
:class:`QueryCache` per handle and consult it from every public query
method.

Design points:

* Keys are the canonical query tuples the ``batch()`` wire format uses
  — ``("reach", 4, 17)``, ``("out", 9)``, ``("components",)`` — so a
  cached single-shot query also hits for the same request inside a
  batch and vice versa.
* The cache is a plain LRU over an :class:`collections.OrderedDict`
  guarded by one lock; the handles' indexes are immutable after build,
  so entries never need invalidation — eviction is purely capacity
  driven.
* ``hits`` / ``misses`` counters are exposed next to the handles'
  ``canonicalizations`` counter so serving dashboards can watch both
  the index-build and the answer-reuse behavior of a handle.
* List-valued answers are stored once and *copied out* on every hit;
  callers may mutate what they receive without poisoning the cache.
* ``capacity=0`` disables caching entirely (every lookup is a miss and
  nothing is stored) — the benchmarks use that to measure the raw
  evaluation path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

__all__ = ["QueryCache"]

#: Sentinel distinguishing "not cached" from a cached ``None`` answer
#: (``path`` legitimately returns ``None`` for unreachable pairs).
_MISSING = object()


class QueryCache:
    """A thread-safe LRU keyed by query tuples, with hit/miss counters."""

    __slots__ = ("capacity", "_entries", "_lock", "hits", "misses",
                 "evictions")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        #: Maximum number of cached answers (0 disables the cache).
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        #: Lookups answered from the cache.
        self.hits = 0
        #: Lookups that fell through to evaluation.
        self.misses = 0
        #: Entries dropped because the cache was full.
        self.evictions = 0

    # ------------------------------------------------------------------
    # Core protocol
    # ------------------------------------------------------------------
    def lookup(self, key: Hashable) -> Tuple[bool, Any]:
        """``(hit, value)`` for ``key``; counts the hit or miss."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            return True, self._copy_out(value)

    def store(self, key: Hashable, value: Any) -> None:
        """Insert ``value`` under ``key``, evicting the LRU entry."""
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def get_or_compute(self, key: Hashable,
                       compute: Callable[..., Any], *args: Any) -> Any:
        """The memoization shape the handles use for every query:
        ``compute(*args)`` on a miss."""
        hit, value = self.lookup(key)
        if hit:
            return value
        value = compute(*args)
        self.store(key, value)
        return self._copy_out(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def peek(self, key: Hashable) -> Tuple[bool, Any]:
        """Like :meth:`lookup` but without touching the counters/LRU."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            return False, None
        return True, self._copy_out(value)

    @property
    def hit_rate(self) -> Optional[float]:
        """``hits / (hits + misses)``, or ``None`` before any lookup."""
        total = self.hits + self.misses
        if total == 0:
            return None
        return self.hits / total

    def info(self) -> Dict[str, Any]:
        """Counters snapshot (the handles expose this as ``cache_info``)."""
        with self._lock:
            size = len(self._entries)
        return {
            "capacity": self.capacity,
            "size": size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    @staticmethod
    def _copy_out(value: Any) -> Any:
        """Shield cached containers from caller mutation."""
        if type(value) is list:
            return list(value)
        if type(value) is dict:
            return dict(value)
        return value

    def __repr__(self) -> str:
        return (f"QueryCache(capacity={self.capacity}, size={len(self)}, "
                f"hits={self.hits}, misses={self.misses})")
