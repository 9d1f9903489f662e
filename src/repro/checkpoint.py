"""Resumable-search checkpoints: snapshot, persistence, recording policy.

The distributed-MC literature's answer to lost subtree jobs is resumable
work units, not restarts: because clique search trees are wildly
irregular, a retried job that starts from zero can pay an arbitrarily
large straggler tax.  A :class:`SearchCheckpoint` captures the three
things a deterministic search needs to continue — the incumbent clique,
a cursor into the ordered frontier of unexplored root branches, and the
work counter — so a crash mid-search costs at most one checkpoint
interval of work.  This is the serving analogue of the paper's
degradation contract: a partial answer (and now, partial *progress*) is
always available.

One search checkpoints itself against this format: the LazyMC driver's
systematic sweep (:mod:`repro.core.systematic`), where the root branches
are the coreness levels of Alg. 7 and ``cursor`` is the next level to
sweep (descending).

Checkpoints are plain pickles written atomically (temp file +
``os.replace``) so a worker killed mid-write can never leave a torn file;
a missing or corrupt file simply reads back as ``None`` and the retry
starts from scratch — checkpointing is an optimisation, never a
correctness dependency.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SearchCheckpoint:
    """Picklable snapshot of an in-progress branch-and-bound search.

    ``clique`` is the incumbent in original graph ids, ``work`` the
    counter value at snapshot time, ``cursor`` the next coreness level to
    sweep (descending; ``None`` = the sweep has not started), and
    ``seed_done`` whether Alg. 7's per-level seeding pass already ran.
    ``complete`` marks a search that finished normally — resuming from it
    is a no-op sweep.
    """

    clique: list[int] = field(default_factory=list)
    work: int = 0
    cursor: int | None = None
    seed_done: bool = False
    complete: bool = False


def _write_atomic(path: str | os.PathLike, data: bytes) -> str:
    """Write ``data`` to ``path`` through a temp file and ``os.replace``.

    Creates the parent directory; a failed write removes its temp file and
    leaves any previous ``path`` intact.  Returns the path written.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def save_checkpoint(checkpoint: SearchCheckpoint, path: str | os.PathLike) -> None:
    """Atomically persist ``checkpoint`` to ``path`` (temp + rename)."""
    _write_atomic(path, pickle.dumps(checkpoint,
                                     protocol=pickle.HIGHEST_PROTOCOL))


def load_checkpoint(path: str | os.PathLike) -> SearchCheckpoint | None:
    """Read a checkpoint back; ``None`` for missing/corrupt/foreign files.

    Corruption tolerance is deliberate: a checkpoint is best-effort
    progress, and a retry that cannot decode one must degrade to a full
    restart, not fail.
    """
    try:
        with open(os.fspath(path), "rb") as handle:
            checkpoint = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError):
        return None
    return checkpoint if isinstance(checkpoint, SearchCheckpoint) else None


def discard_checkpoint(path: str | os.PathLike) -> None:
    """Remove a checkpoint file if present (idempotent)."""
    try:
        os.unlink(os.fspath(path))
    except OSError:
        pass


class Checkpointer:
    """Recording policy in front of a checkpoint sink.

    ``interval_work`` throttles snapshots: one is taken only when at
    least that much work has accrued since the last one (0 = every
    offer).  The throttle is what bounds checkpoint overhead — the
    acceptance trade is "lose at most ``interval_work`` units on a
    crash" against "pay one pickle per interval".  ``force`` bypasses
    the throttle (used for the final, ``complete=True`` snapshot).
    """

    def __init__(self, sink: Callable[[SearchCheckpoint], None],
                 interval_work: int = 0):
        self.sink = sink
        self.interval_work = max(0, int(interval_work))
        self.recorded = 0
        self._last_work: int | None = None

    def offer(self, checkpoint: SearchCheckpoint, force: bool = False) -> bool:
        """Record ``checkpoint`` unless the work throttle suppresses it."""
        if not force and self._last_work is not None and \
                checkpoint.work - self._last_work < self.interval_work:
            return False
        self._last_work = checkpoint.work
        self.sink(checkpoint)
        self.recorded += 1
        return True
