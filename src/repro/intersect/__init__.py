"""Set-intersection kernels: hopscotch hashing and early-exit algorithms.

The MC problem is dominated by set intersections of the form "is the
intersection bigger than θ?" (§IV-B).  This subpackage provides:

* :class:`~repro.intersect.hashset.HopscotchSet` — the paper's hash set
  (hopscotch hashing, neighborhood H = 16, bitmask hop-information).
* :mod:`~repro.intersect.early_exit` — the three early-exit kernels
  ``intersect_size_gt_val``, ``intersect_gt`` (Alg. 3) and
  ``intersect_size_gt_bool`` (Alg. 4), each instrumented and toggleable for
  the Fig. 5 ablation.
"""

from .hashset import HopscotchSet
from .early_exit import (
    EarlyExitConfig,
    intersect_gt,
    intersect_size_gt_val,
    intersect_size_gt_bool,
)

__all__ = [
    "HopscotchSet",
    "EarlyExitConfig",
    "intersect_gt",
    "intersect_size_gt_val",
    "intersect_size_gt_bool",
]
