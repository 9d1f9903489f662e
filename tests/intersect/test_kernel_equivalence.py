"""Differential checks of the early-exit kernels and ``SortedArraySet``.

The frozen functions below are the index-loop kernels that the exit-budget
kernels replaced: they step through ``A[a]`` and read the config on every
element, and the frozen ``SortedArraySet`` makes one ``np.searchsorted``
call per probe.  The rewrite must be invisible: the same return value, the
same ``out`` buffer and the same ``Counters`` for every
``EarlyExitConfig``, every θ around ``n``, ``A`` as a list or an array and
``B`` as a ``set`` or a ``SortedArraySet``.
"""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.instrument import Counters
from repro.intersect import intersect_gt, intersect_size_gt_bool, intersect_size_gt_val
from repro.intersect.early_exit import EarlyExitConfig, SortedArraySet

CONFIGS = [EarlyExitConfig(enabled=e, second_exit=s)
           for e, s in itertools.product((True, False), repeat=2)]


class _FrozenSortedArraySet:
    __slots__ = ("_data",)

    def __init__(self, data):
        self._data = data

    def __len__(self):
        return len(self._data)

    def __contains__(self, value):
        d = self._data
        i = int(np.searchsorted(d, value))
        return i < len(d) and d[i] == value


def _frozen_gt_val(A, B, theta, counters, config):
    n = len(A)
    m = len(B)
    scanned = 0
    result = -2
    if n <= theta or m <= theta:
        result = -1
        hits = 0
    else:
        limit_misses = n - theta
        misses = 0
        hits = 0
        if config.enabled:
            for a in range(n):
                scanned += 1
                if A[a] in B:
                    hits += 1
                else:
                    misses += 1
                    if misses >= limit_misses:
                        result = -1
                        break
        else:
            for a in range(n):
                scanned += 1
                if A[a] in B:
                    hits += 1
    if result == -2:
        result = hits if hits > theta else -1
    counters.intersections += 1
    counters.elements_scanned += scanned
    counters.hash_lookups += scanned
    if result == -1 and scanned < n:
        counters.early_exit_false += 1
    return result


def _frozen_gt(A, B, out, theta, counters, config):
    n = len(A)
    m = len(B)
    scanned = 0
    if n <= theta or m <= theta:
        counters.intersections += 1
        return -1
    limit_misses = n - theta
    misses = 0
    hits = 0
    result = -2
    for a in range(n):
        scanned += 1
        x = A[a]
        if x in B:
            out[hits] = x
            hits += 1
        else:
            misses += 1
            if config.enabled and misses >= limit_misses:
                result = -1
                break
    if result == -2:
        result = hits if hits > theta else -1
    counters.intersections += 1
    counters.elements_scanned += scanned
    counters.hash_lookups += scanned
    if result == -1 and scanned < n:
        counters.early_exit_false += 1
    return result


def _frozen_gt_bool(A, B, theta, counters, config):
    n = len(A)
    m = len(B)
    if n <= theta or m <= theta:
        counters.intersections += 1
        return False
    h = n - theta
    scanned = 0
    verdict = None
    for a in range(n):
        scanned += 1
        if A[a] in B:
            if config.enabled and config.second_exit and h > n - a - 1:
                verdict = True
                break
        else:
            h -= 1
            if config.enabled and h <= 0:
                verdict = False
                break
    counters.intersections += 1
    counters.elements_scanned += scanned
    counters.hash_lookups += scanned
    if verdict is False and scanned < n:
        counters.early_exit_false += 1
    elif verdict is True:
        counters.early_exit_true += 1
    if verdict is None:
        verdict = h > 0
    return verdict


def _sides(a_values, b_values):
    """Every (A, B_new, B_frozen) form the solver passes."""
    b_sorted = np.asarray(sorted(b_values), dtype=np.int64)
    for A in (list(a_values), np.asarray(a_values, dtype=np.int64)):
        yield A, set(b_values), set(b_values)
        yield A, SortedArraySet(b_sorted), _FrozenSortedArraySet(b_sorted)


def _check_all(a_values, b_values):
    n = len(a_values)
    for (A, B, B_old), config, theta in itertools.product(
            _sides(a_values, b_values), CONFIGS, range(-3, n + 3)):
        new, old = Counters(), Counters()
        assert (intersect_size_gt_bool(A, B, theta, new, config)
                == _frozen_gt_bool(A, B_old, theta, old, config))
        assert (intersect_size_gt_val(A, B, theta, new, config)
                == _frozen_gt_val(A, B_old, theta, old, config))
        out_new, out_old = [None] * n, [None] * n
        assert (intersect_gt(A, B, out_new, theta, new, config)
                == _frozen_gt(A, B_old, out_old, theta, old, config))
        assert out_new == out_old
        assert new.as_dict() == old.as_dict()


values = st.integers(0, 24)


class TestKernelsMatchFrozen:
    @given(st.lists(values, max_size=20), st.sets(values, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_random_sides(self, a_values, b_values):
        _check_all(a_values, b_values)

    @given(st.sets(values, max_size=20), st.sets(values, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_sorted_unique_rows(self, a_values, b_values):
        """The solver's shape: A and B are both neighbourhood rows."""
        _check_all(sorted(a_values), b_values)

    def test_empty_sides(self):
        for a_values, b_values in (([], set()), ([], {1, 2}), ([1, 2], set())):
            _check_all(a_values, b_values)

    def test_all_hits_and_all_misses(self):
        _check_all(list(range(10)), set(range(10)))
        _check_all(list(range(10)), set(range(10, 20)))


class TestSortedArraySetMatchesFrozen:
    @given(st.sets(values, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_membership(self, b_values):
        data = np.asarray(sorted(b_values), dtype=np.int64)
        new, old = SortedArraySet(data), _FrozenSortedArraySet(data)
        assert len(new) == len(old)
        assert new.to_array() is data
        for x in range(-2, 28):
            assert (x in new) == (x in old)
            assert (np.int64(x) in new) == (np.int64(x) in old)
