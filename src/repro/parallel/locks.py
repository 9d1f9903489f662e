"""Striped locks for the lazy graph's double-checked locking (Alg. 2).

The lazy graph guards per-vertex neighborhood construction with
double-checked locking: a lock-free fast path reads an "initialized" flag,
and only constructors take the lock.  The paper allocates one lock per
vertex; we stripe locks over a fixed pool (identical semantics — a stripe
serializes slightly more than necessary, never less) to keep memory bounded.

Under the simulated scheduler locks are never contended, but the structure
is kept faithful so the lazy graph is also safe under real ``threading``
use of the library.
"""

from __future__ import annotations

import threading


class StripedLocks:
    """A pool of locks indexed by key hash."""

    def __init__(self, stripes: int = 64):
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self._locks = [threading.Lock() for _ in range(stripes)]
        self._stripes = stripes

    def lock_for(self, key: int) -> threading.Lock:
        """The lock guarding ``key``'s stripe."""
        return self._locks[key % self._stripes]

    def __len__(self) -> int:
        return self._stripes
