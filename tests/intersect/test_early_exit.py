"""Tests for the early-exit intersection kernels (Alg. 3 / Alg. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.instrument import Counters
from repro.intersect import (
    EarlyExitConfig, HopscotchSet,
    intersect_gt, intersect_size_gt_val, intersect_size_gt_bool,
)
from repro.intersect.early_exit import SortedArraySet, intersect_exact

NO_EXIT = EarlyExitConfig(enabled=False)
NO_SECOND = EarlyExitConfig(enabled=True, second_exit=False)


def make_b(values, kind):
    if kind == "hopscotch":
        return HopscotchSet.from_iterable(values)
    if kind == "pyset":
        return set(values)
    return SortedArraySet(np.asarray(sorted(values), dtype=np.int64))


B_KINDS = ["hopscotch", "pyset", "sorted"]


class TestSizeGtVal:
    @pytest.mark.parametrize("kind", B_KINDS)
    def test_exact_when_above_threshold(self, kind):
        a = np.array([1, 2, 3, 4, 5])
        b = make_b([2, 4, 5, 9], kind)
        assert intersect_size_gt_val(a, b, 2) == 3

    def test_error_code_when_at_or_below(self):
        a = np.array([1, 2, 3, 4, 5])
        b = set([2, 4, 5])
        assert intersect_size_gt_val(a, b, 3) == -1
        assert intersect_size_gt_val(a, b, 5) == -1

    def test_small_inputs_short_circuit(self):
        assert intersect_size_gt_val(np.array([1, 2]), {1, 2}, 2) == -1
        assert intersect_size_gt_val(np.array([1, 2, 3]), {1}, 3) == -1

    def test_negative_theta_computes_full(self):
        a = np.array([1, 2, 3])
        assert intersect_size_gt_val(a, {9}, -1) == 0
        assert intersect_size_gt_val(a, {1}, -1) == 1

    def test_early_exit_skips_scanning(self):
        # theta=8 over |A|=10 with the first two missing -> exit after 2.
        a = np.arange(10)
        b = set(range(2, 12))
        c = Counters()
        # misses tolerated = 10 - 8 = 2; elements 0,1 miss -> exit at a=1.
        assert intersect_size_gt_val(a, b, 8, counters=c) == -1
        assert c.elements_scanned == 2
        assert c.early_exit_false == 1

    def test_disabled_config_scans_all(self):
        a = np.arange(10)
        b = set(range(2, 12))
        c = Counters()
        assert intersect_size_gt_val(a, b, 8, counters=c, config=NO_EXIT) == -1
        assert c.elements_scanned == 10
        assert c.early_exit_false == 0


class TestIntersectGt:
    @pytest.mark.parametrize("kind", B_KINDS)
    def test_materializes_result(self, kind):
        a = np.array([1, 3, 5, 7, 9])
        b = make_b([3, 7, 9, 11], kind)
        out = np.empty(5, dtype=np.int64)
        size = intersect_gt(a, b, out, 2)
        assert size == 3
        assert list(out[:size]) == [3, 7, 9]

    def test_failure_returns_minus_one(self):
        a = np.array([1, 3, 5])
        out = np.empty(3, dtype=np.int64)
        assert intersect_gt(a, {3}, out, 2) == -1

    def test_preserves_a_order(self):
        a = np.array([9, 1, 5])
        out = np.empty(3, dtype=np.int64)
        size = intersect_gt(a, {1, 5, 9}, out, 0)
        assert list(out[:size]) == [9, 1, 5]

    def test_buffer_can_be_list(self):
        a = np.array([1, 2, 3])
        out = [None] * 3
        size = intersect_gt(a, {2, 3}, out, 1)
        assert size == 2
        assert out[:2] == [2, 3]

    def test_early_exit_counted(self):
        a = np.arange(10)
        out = np.empty(10, dtype=np.int64)
        c = Counters()
        assert intersect_gt(a, set(range(100, 110)), out, 5, counters=c) == -1
        assert c.early_exit_false == 1
        assert c.elements_scanned == 5  # tolerated misses = 10 - 5


class TestSizeGtBool:
    @pytest.mark.parametrize("kind", B_KINDS)
    def test_verdicts(self, kind):
        a = np.array([1, 2, 3, 4])
        b = make_b([1, 2, 3], kind)
        assert intersect_size_gt_bool(a, b, 2) is True
        assert intersect_size_gt_bool(a, b, 3) is False

    def test_small_input_short_circuit(self):
        assert intersect_size_gt_bool(np.array([1]), {1}, 1) is False
        assert intersect_size_gt_bool(np.array([1, 2]), {1}, 2) is False

    def test_second_exit_fires_on_large_sets(self):
        """Hit-heavy prefix lets the true-side exit trigger early."""
        a = np.arange(100)
        b = set(range(100))
        c = Counters()
        # theta=10: h=90 > n-a-1=99-a once a >= 10 on a hit.
        assert intersect_size_gt_bool(a, b, 10, counters=c) is True
        assert c.early_exit_true == 1
        assert c.elements_scanned < 100

    def test_second_exit_disabled(self):
        a = np.arange(100)
        b = set(range(100))
        c = Counters()
        assert intersect_size_gt_bool(a, b, 10, counters=c, config=NO_SECOND) is True
        assert c.early_exit_true == 0
        assert c.elements_scanned == 100

    def test_false_exit(self):
        a = np.arange(100)
        b = set(range(200, 300))
        c = Counters()
        # tolerated misses = 100 - 98 = 2
        assert intersect_size_gt_bool(a, b, 98, counters=c) is False
        assert c.elements_scanned == 2
        assert c.early_exit_false == 1

    def test_negative_theta_trivially_true_on_first_hit(self):
        a = np.array([5, 6])
        assert intersect_size_gt_bool(a, {5}, 0) is True
        assert intersect_size_gt_bool(a, {7}, 0) is False


class TestAgreementProperties:
    """All kernels must agree with plain set algebra on every input."""

    @given(
        st.lists(st.integers(0, 30), max_size=25, unique=True),
        st.sets(st.integers(0, 30), max_size=25),
        st.integers(-2, 26),
        st.sampled_from(B_KINDS),
    )
    @settings(max_examples=150, deadline=None)
    def test_kernels_match_reference(self, a_list, b_set, theta, kind):
        a = np.asarray(a_list, dtype=np.int64)
        b = make_b(b_set, kind)
        true_size = len(set(a_list) & b_set)

        val = intersect_size_gt_val(a, b, theta)
        if true_size > theta:
            assert val == true_size
        else:
            assert val == -1

        out = np.empty(max(len(a), 1), dtype=np.int64)
        gt = intersect_gt(a, b, out, theta)
        if true_size > theta:
            assert gt == true_size
            assert set(out[:gt].tolist()) == set(a_list) & b_set
        else:
            assert gt == -1

        assert intersect_size_gt_bool(a, b, theta) == (true_size > theta)

    @given(
        st.lists(st.integers(0, 40), max_size=30, unique=True),
        st.sets(st.integers(0, 40), max_size=30),
        st.integers(-2, 31),
    )
    @settings(max_examples=100, deadline=None)
    def test_ablation_configs_agree_on_verdicts(self, a_list, b_set, theta):
        """Early exits change work, never answers."""
        a = np.asarray(a_list, dtype=np.int64)
        for cfg in (EarlyExitConfig(), NO_EXIT, NO_SECOND):
            assert intersect_size_gt_bool(a, b_set, theta, config=cfg) == \
                (len(set(a_list) & b_set) > theta)
            v1 = intersect_size_gt_val(a, b_set, theta, config=cfg)
            v2 = intersect_size_gt_val(a, b_set, theta)
            assert v1 == v2


class TestIntersectExact:
    def test_intersect_exact_instrumented(self):
        c = Counters()
        out = intersect_exact(np.array([1, 2, 3]), {2, 3}, counters=c)
        assert out == [2, 3]
        assert c.elements_scanned == 3
        assert c.intersections == 1
