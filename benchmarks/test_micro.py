"""Kernel microbenchmarks with real pytest-benchmark timing rounds."""

import numpy as np
import pytest

from repro.bench import micro
from repro.instrument import Counters
from repro.intersect import (
    HopscotchSet, intersect_size_gt_bool, intersect_size_gt_val,
)
from repro.intersect.early_exit import SortedArraySet


@pytest.fixture(scope="module")
def pair():
    return micro._make_pair(universe=4096, size_a=256, size_b=256,
                            overlap=0.5, seed=3)


class TestKernelTiming:
    def test_hopscotch_membership(self, benchmark, pair):
        a, b = pair
        rep = HopscotchSet.from_iterable(int(x) for x in b)
        result = benchmark(lambda: sum(1 for x in a if x in rep))
        assert result == len(set(a) & set(b))

    def test_early_exit_val_kernel(self, benchmark, pair):
        a, b = pair
        rep = HopscotchSet.from_iterable(int(x) for x in b)
        true_size = len(set(map(int, a)) & set(map(int, b)))
        result = benchmark(
            lambda: intersect_size_gt_val(a, rep, true_size - 10))
        assert result == true_size

    def test_early_exit_bool_kernel_true_side(self, benchmark, pair):
        a, b = pair
        rep = HopscotchSet.from_iterable(int(x) for x in b)
        result = benchmark(lambda: intersect_size_gt_bool(a, rep, 5))
        assert result is True
