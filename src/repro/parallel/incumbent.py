"""Incumbent clique tracking, sequential and simulated-parallel.

The incumbent clique ``C*`` is the one piece of global mutable state in MC
branch and bound (§II-A).  :class:`Incumbent` is the thread-safe global
record; :class:`IncumbentView` is what a (simulated) worker task sees — the
global state as of the task's virtual start time, plus the task's own local
improvements, which are published back when the task completes.  Staleness
of views is *the* mechanism behind parallel work inflation (§V-F).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass
class _Publication:
    time: float
    size: int
    clique: list[int]


class Incumbent:
    """Global incumbent clique with a virtual-time publication log.

    Vertices are stored in *original* graph ids.  ``offer`` publishes at
    ``time`` (0 by default: sequential semantics); the scheduler passes
    virtual times and reads them back through ``visible_at`` to implement
    delayed visibility.  ``history`` keeps every improvement with the
    work/time at which it was published, powering the incumbent-growth
    analyses.
    """

    def __init__(self, clique: list[int] | None = None):
        self._lock = threading.Lock()
        self._publications: list[_Publication] = []
        self._best: list[int] = []
        if clique:
            self._best = list(clique)
            self._publications.append(_Publication(0.0, len(clique), list(clique)))

    @property
    def size(self) -> int:
        return len(self._best)

    @property
    def clique(self) -> list[int]:
        return list(self._best)

    def offer(self, clique: list[int], time: float = 0.0) -> bool:
        """Adopt ``clique`` if larger than the current incumbent."""
        with self._lock:
            if len(clique) > len(self._best):
                self._best = list(clique)
                self._publications.append(_Publication(time, len(clique), list(clique)))
                return True
            return False

    # -- virtual-time interface used by the simulated scheduler ---------------

    def visible_at(self, time: float) -> tuple[int, list[int]]:
        """Best (size, clique) among publications with time <= ``time``."""
        # Each publication is larger than every earlier one, so the newest
        # is the best whenever it is visible: always at T = 1.  The list
        # only grows and its entries never change, so no lock is needed.
        publications = self._publications
        if publications:
            newest = publications[-1]
            if newest.time <= time:
                return newest.size, list(newest.clique)
        best_size = 0
        best: list[int] = []
        with self._lock:
            for pub in self._publications:
                if pub.time <= time and pub.size > best_size:
                    best_size = pub.size
                    best = pub.clique
        return best_size, list(best)

    @property
    def history(self) -> list[tuple[float, int]]:
        return [(p.time, p.size) for p in self._publications]


class IncumbentView:
    """A worker task's window onto the incumbent.

    Sees the global incumbent as of the task's virtual start time plus its
    own local improvements (a thread always sees its own writes).  Local
    improvements are handed back to the scheduler for publication at task
    completion.
    """

    __slots__ = ("_visible_size", "_visible_clique", "_local_best")

    def __init__(self, visible_size: int, visible_clique: list[int]):
        self._visible_size = visible_size
        self._visible_clique = visible_clique
        self._local_best: list[int] | None = None

    @property
    def size(self) -> int:
        if self._local_best is not None and len(self._local_best) > self._visible_size:
            return len(self._local_best)
        return self._visible_size

    @property
    def clique(self) -> list[int]:
        if self._local_best is not None and len(self._local_best) > self._visible_size:
            return list(self._local_best)
        return list(self._visible_clique)

    def offer(self, clique: list[int]) -> bool:
        """Record a locally found clique; returns True when it improves
        this view (and thus will be published)."""
        if len(clique) > self.size:
            self._local_best = list(clique)
            return True
        return False

    @property
    def pending(self) -> list[int] | None:
        """The improvement awaiting publication, if any."""
        return list(self._local_best) if self._local_best is not None else None
