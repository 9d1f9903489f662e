"""LRU result cache with hit/miss accounting.

The paper's thesis is work-avoidance: skip work whose outcome cannot
matter.  At the serving layer the purest form of that is never re-running a
solve at all — two requests for the same labelled graph under the same
config must produce identical results, so the second one's work cannot
matter.
Keys are ``(graph fingerprint, config key)`` pairs built by the service;
the cache itself is key-agnostic.

A plain ``OrderedDict`` under a lock: lookups and inserts are O(1), and the
lock is uncontended in practice (hits dodge the worker pool entirely, so
the critical section is microseconds against solves that are milliseconds
to minutes).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable


class ResultCache:
    """Bounded LRU mapping with hit/miss/eviction counters.

    ``capacity <= 0`` disables caching entirely (every ``get`` is a miss,
    ``put`` is a no-op) so callers never need a conditional around the
    cache.
    """

    def __init__(self, capacity: int = 128):
        self.capacity = int(capacity)
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable):
        """The cached value for ``key`` (refreshing recency), else ``None``."""
        with self._lock:
            if key in self._data:
                self.hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self.misses += 1
            return None

    def put(self, key: Hashable, value) -> None:
        """Insert/refresh ``key``, evicting the least-recently-used entry."""
        if self.capacity <= 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        # Membership probe without touching recency or the counters.
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._data.clear()

    def info(self) -> dict:
        """Counters + occupancy, JSON-friendly."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "size": len(self._data),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }
