"""Early-exit set intersection kernels (Alg. 3 and Alg. 4).

Three operations, all asking "is the intersection larger than θ?":

* :func:`intersect_size_gt_val` — return ``|A ∩ B|`` when it exceeds θ,
  else the error code ``-1`` (early exit on the *false* side).
* :func:`intersect_gt` — additionally materialize the intersection into a
  caller-provided buffer (Alg. 3); used by both heuristic searches.
* :func:`intersect_size_gt_bool` — boolean answer with *two* early exits
  (Alg. 4): the false-side exit shared with the others, and a true-side
  exit taken when so few elements remain unchecked that the answer cannot
  flip back to false.  Used by filtering, where only the verdict matters.

``A`` is an array (any integer sequence; the lazy graph passes sorted
``int32`` views) and ``B`` is anything supporting ``__len__`` and
``__contains__`` — a :class:`~repro.intersect.hashset.HopscotchSet`, a
Python ``set``, or a :class:`SortedArraySet` adapter.

The paper's kernels track ``h = n - θ - misses``, the number of further
misses tolerable before the intersection provably cannot exceed θ.  Here
each exit is a budget fixed before the one loop over ``A``, which iterates
the elements (no indexing) and reads no config inside:

* the *miss budget* is ``h``'s start value ``n - θ``: the scan ends false
  when it runs out;
* the *hit budget* (boolean kernel only) is ``max(θ + 1, 1)``: the scan
  ends true when it runs out, which is exactly when the paper's second
  exit fires.

All three accept an :class:`EarlyExitConfig` so the Fig. 5 ablation can
disable (a) all early exits or (b) only the second, true-side exit; a
disabled exit gets the budget ``n + 1``, which no scan of ``n`` elements
spends.  The elements scanned are the budget spent, and the counters are
written once per call.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from ..instrument import Counters


@dataclass(frozen=True)
class EarlyExitConfig:
    """Ablation toggles for the intersection kernels (Fig. 5).

    ``enabled=False`` makes every kernel scan all of ``A`` before applying
    the threshold; ``second_exit=False`` disables only the true-side exit
    of :func:`intersect_size_gt_bool`.
    """

    enabled: bool = True
    second_exit: bool = True


DEFAULT_CONFIG = EarlyExitConfig()


class SortedArraySet:
    """Adapter giving a sorted array the ``contains`` protocol.

    Used when only the sorted-array representation of a neighborhood
    exists and the caller has chosen not to build the hash set; membership
    degrades to binary search, a ``bisect_left`` over the row as a list.
    """

    __slots__ = ("_data", "_items")

    def __init__(self, data: np.ndarray):
        self._data = data
        self._items = data.tolist()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, value: int) -> bool:
        items = self._items
        i = bisect_left(items, value)
        return i < len(items) and items[i] == value

    def to_array(self) -> np.ndarray:
        """The underlying sorted array."""
        return self._data


def intersect_size_gt_val(A, B, theta: int, counters: Counters | None = None,
                          config: EarlyExitConfig = DEFAULT_CONFIG) -> int:
    """Return ``|A ∩ B|`` if it is strictly larger than ``theta``, else -1.

    Early-exits (false side) as soon as enough elements of ``A`` have
    missed that the bound cannot be met.  With ``config.enabled`` false the
    whole of ``A`` is scanned (ablation baseline).
    """
    n = len(A)
    if n <= theta or len(B) <= theta:
        result = -1
        scanned = 0
    else:
        budget = misses_left = n - theta if config.enabled else n + 1
        hits = 0
        for x in A:
            if x in B:
                hits += 1
            else:
                misses_left -= 1
                if not misses_left:
                    break
        scanned = hits + budget - misses_left
        result = hits if hits > theta else -1
    if counters is not None:
        counters.intersections += 1
        counters.elements_scanned += scanned
        counters.hash_lookups += scanned
        if result == -1 and scanned < n:
            counters.early_exit_false += 1
    return result


def intersect_gt(A, B, out: np.ndarray | list, theta: int,
                 counters: Counters | None = None,
                 config: EarlyExitConfig = DEFAULT_CONFIG) -> int:
    """Alg. 3: materializing variant of :func:`intersect_size_gt_val`.

    When the intersection is larger than ``theta`` the result is stored in
    ``out[0:size]`` (in ``A``'s order) and its size is returned; otherwise
    -1 is returned and ``out`` holds an unspecified partial prefix.
    """
    n = len(A)
    if n <= theta or len(B) <= theta:
        if counters is not None:
            counters.intersections += 1
        return -1
    budget = misses_left = n - theta if config.enabled else n + 1
    hits = 0
    for x in A:
        if x in B:
            out[hits] = x
            hits += 1
        else:
            misses_left -= 1
            if not misses_left:
                break
    scanned = hits + budget - misses_left
    result = hits if hits > theta else -1
    if counters is not None:
        counters.intersections += 1
        counters.elements_scanned += scanned
        counters.hash_lookups += scanned
        if result == -1 and scanned < n:
            counters.early_exit_false += 1
    return result


def intersect_size_gt_bool(A, B, theta: int, counters: Counters | None = None,
                           config: EarlyExitConfig = DEFAULT_CONFIG) -> bool:
    """Alg. 4: is ``|A ∩ B| > theta``?  Two early exits.

    False side: too many misses (shared with the other kernels).  True
    side: with ``h`` misses still tolerable and only ``n - a - 1`` elements
    left unchecked after a hit, ``h > n - a - 1`` guarantees a true
    verdict no matter what the rest of ``A`` does — this is the paper's
    "second exit", profitable on very large sets (§IV-B).  Since
    ``h = n - θ - misses``, that test holds exactly when the hits so far
    exceed θ, so the second exit is a hit budget of ``max(θ + 1, 1)``
    beside the miss budget ``h``.
    """
    n = len(A)
    if n <= theta or len(B) <= theta:
        if counters is not None:
            counters.intersections += 1
        return False
    miss_budget = misses_left = n - theta if config.enabled else n + 1
    if config.enabled and config.second_exit:
        hit_budget = hits_left = theta + 1 if theta >= 0 else 1
    else:
        hit_budget = hits_left = n + 1
    verdict: bool | None = None
    for x in A:
        if x in B:
            hits_left -= 1
            if not hits_left:
                verdict = True
                break
        else:
            misses_left -= 1
            if not misses_left:
                verdict = False
                break
    hits = hit_budget - hits_left
    if counters is not None:
        scanned = hits + miss_budget - misses_left
        counters.intersections += 1
        counters.elements_scanned += scanned
        counters.hash_lookups += scanned
        if verdict is False and scanned < n:
            counters.early_exit_false += 1
        elif verdict is True:
            counters.early_exit_true += 1
    if verdict is None:
        verdict = hits > theta
    return verdict


def intersect_exact(A, B, counters: Counters | None = None) -> list:
    """Plain instrumented intersection (no threshold, no exits).

    The reference kernel the ablations and property tests compare against.
    """
    out = [x for x in A if x in B]
    if counters is not None:
        counters.intersections += 1
        counters.elements_scanned += len(A)
        counters.hash_lookups += len(A)
    return out
