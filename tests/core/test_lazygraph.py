"""Tests for the lazy filtered hashed relabelled graph (Alg. 2)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import LazyGraph, LazyMCConfig, PrepopulatePolicy
from repro.graph import coreness, coreness_degree_order, from_edges
from repro.instrument import Counters
from repro.intersect.early_exit import SortedArraySet
from tests.conftest import random_graph


def make_lazy(graph, config=None, counters=None):
    core = coreness(graph)
    order = coreness_degree_order(graph, core)
    lazy = LazyGraph(graph, order, core,
                     config or LazyMCConfig(), counters or Counters())
    return lazy, order, core


class TestLaziness:
    def test_nothing_built_initially(self):
        g = random_graph(20, 0.3, seed=1)
        lazy, _, _ = make_lazy(g)
        assert lazy.built_counts() == (0, 0)

    def test_hash_rep_built_on_demand_and_memoized(self):
        g = random_graph(20, 0.3, seed=1)
        c = Counters()
        lazy, _, _ = make_lazy(g, counters=c)
        rep1 = lazy.hashed_neighborhood(5)
        built = c.neighborhoods_built_hash
        rep2 = lazy.hashed_neighborhood(5)
        assert rep1 is rep2
        assert c.neighborhoods_built_hash == built == 1
        assert lazy.built_counts() == (1, 0)

    def test_sorted_rep_memoized(self):
        g = random_graph(20, 0.3, seed=2)
        lazy, _, _ = make_lazy(g)
        a = lazy.sorted_neighborhood(3)
        b = lazy.sorted_neighborhood(3)
        assert a is b
        assert lazy.built_counts() == (0, 1)

    def test_both_reps_can_coexist(self):
        g = random_graph(20, 0.3, seed=3)
        lazy, _, _ = make_lazy(g)
        lazy.sorted_neighborhood(4)
        lazy.hashed_neighborhood(4)
        assert lazy.built_counts() == (1, 1)


class TestCorrectness:
    def test_hash_rep_matches_relabelled_neighbors(self):
        g = random_graph(25, 0.35, seed=4)
        lazy, order, core = make_lazy(g)
        for v in range(g.n):
            expected = {int(order.old_to_new[u])
                        for u in g.neighbors(order.relabelled_to_original(v))}
            assert set(lazy.hashed_neighborhood(v)) == expected

    def test_sorted_and_hash_agree(self):
        g = random_graph(25, 0.35, seed=5)
        lazy, _, _ = make_lazy(g)
        for v in range(g.n):
            assert list(lazy.sorted_neighborhood(v)) == \
                sorted(lazy.hashed_neighborhood(v))

    def test_filtering_at_construction(self):
        g = random_graph(30, 0.3, seed=6)
        lazy, order, core = make_lazy(g)
        min_core = 3
        for v in range(g.n):
            rep = lazy.hashed_neighborhood(v, min_core=min_core)
            for u in rep:
                assert lazy.core[u] >= min_core

    def test_right_neighborhood_semantics(self):
        g = random_graph(30, 0.4, seed=7)
        lazy, order, core = make_lazy(g)
        for v in range(g.n):
            right = lazy.right_neighborhood(v, min_core=2)
            full = set(lazy.hashed_neighborhood(v))
            expected = {u for u in full if u > v and lazy.core[u] >= 2}
            assert set(int(x) for x in right) == expected

    def test_stale_representation_refiltered_at_query(self):
        """A rep built under a small incumbent still yields correctly
        filtered right-neighborhoods later (§IV-A discrepancy note)."""
        g = random_graph(30, 0.4, seed=8)
        lazy, _, _ = make_lazy(g)
        lazy.sorted_neighborhood(10, min_core=0)  # built unfiltered
        right = lazy.right_neighborhood(10, min_core=3)
        assert all(lazy.core[u] >= 3 for u in right)


class TestRepresentationChoice:
    def test_degree_rule(self):
        # Star: center has high degree -> hash; leaves low degree -> sorted.
        g = from_edges(20, [(0, i) for i in range(1, 20)])
        cfg = LazyMCConfig(hash_degree_threshold=16)
        lazy, order, _ = make_lazy(g, config=cfg)
        center = order.original_to_relabelled(0)
        leaf = order.original_to_relabelled(1)

        assert isinstance(lazy.membership_set(center), set)
        assert isinstance(lazy.membership_set(leaf), SortedArraySet)

    def test_existing_rep_preferred(self):
        g = random_graph(10, 0.5, seed=9)
        lazy, _, _ = make_lazy(g)
        lazy.sorted_neighborhood(2)
        ms = lazy.membership_set(2)  # must reuse sorted rep, not build hash
        assert lazy.built_counts() == (0, 1)
        lazy.hashed_neighborhood(2)

        assert isinstance(lazy.membership_set(2), set)


class TestPrepopulate:
    def test_none_builds_nothing(self):
        g = random_graph(20, 0.3, seed=10)
        lazy, _, _ = make_lazy(g)
        assert lazy.prepopulate(PrepopulatePolicy.NONE, 2) == 0
        assert lazy.built_counts() == (0, 0)

    def test_all_builds_everything(self):
        g = random_graph(20, 0.3, seed=11)
        lazy, _, _ = make_lazy(g)
        built = lazy.prepopulate(PrepopulatePolicy.ALL, 2)
        assert built == g.n
        assert sum(lazy.built_counts()) == g.n

    def test_must_builds_high_coreness_only(self):
        g = random_graph(30, 0.3, seed=12)
        lazy, _, _ = make_lazy(g)
        threshold = 3
        built = lazy.prepopulate(PrepopulatePolicy.MUST, threshold)
        expected = int(np.sum(lazy.core >= threshold))
        assert built == expected
        assert sum(lazy.built_counts()) == expected

    def test_prepopulate_honors_degree_rule(self):
        # Star graph: only the center's degree exceeds the threshold, so
        # prepopulation must hash the center and sort the leaves — the
        # same split the lazy path's degree rule (§IV-A) would produce.
        g = from_edges(20, [(0, i) for i in range(1, 20)])
        cfg = LazyMCConfig(hash_degree_threshold=16)
        lazy, order, _ = make_lazy(g, config=cfg)
        built = lazy.prepopulate(PrepopulatePolicy.ALL, 0)
        assert built == g.n
        n_hash, n_sorted = lazy.built_counts()
        assert n_hash == 1
        assert n_sorted == g.n - 1


def reference_row(lazy, v, min_core, counters):
    """The per-vertex build as it stood: gather, relabel, filter, sort."""
    nbrs = lazy.order.old_to_new[lazy.graph.neighbors(
        int(lazy.order.new_to_old[v]))]
    keep = lazy.core[nbrs] >= min_core
    counters.elements_scanned += len(nbrs)
    counters.neighbors_filtered_at_build += int(len(nbrs) - keep.sum())
    return np.sort(nbrs[keep]).tolist()


graph_params = st.tuples(st.integers(0, 40), st.floats(0.0, 0.9),
                         st.integers(0, 10_000))


class TestBulkBuilds:
    """The one gather against the frozen per-vertex build."""

    @settings(max_examples=60, deadline=None)
    @given(params=graph_params,
           policy=st.sampled_from(list(PrepopulatePolicy)),
           incumbent=st.integers(0, 6),
           threshold=st.sampled_from([0, 2, 8, 16]))
    def test_prepopulate_equals_per_vertex_builds(self, params, policy,
                                                  incumbent, threshold):
        g = random_graph(*params)
        cfg = LazyMCConfig(hash_degree_threshold=threshold)
        lazy, _, _ = make_lazy(g, config=cfg)
        built = lazy.prepopulate(policy, incumbent)

        want = Counters()
        floor = {PrepopulatePolicy.NONE: None, PrepopulatePolicy.ALL: 0,
                 PrepopulatePolicy.MUST: incumbent}[policy]
        expected_built = 0
        for v in range(g.n):
            hash_rep = lazy._hash_reps[v]
            sorted_rep = lazy._sorted_reps[v]
            if floor is None or lazy.core[v] < floor:
                assert hash_rep is None and sorted_rep is None
                continue
            expected_built += 1
            row = reference_row(lazy, v, incumbent, want)
            assert list(lazy.neighborhood_array(v)) == row
            if lazy.degrees[v] > threshold:
                assert sorted_rep is None and hash_rep == set(row)
                want.hash_inserts += len(row)
                want.neighborhoods_built_hash += 1
            else:
                assert hash_rep is None and sorted_rep.tolist() == row
                want.neighborhoods_built_sorted += 1
        assert built == expected_built
        assert lazy.counters.as_dict() == want.as_dict()

    @settings(max_examples=60, deadline=None)
    @given(params=graph_params, min_core=st.integers(0, 5))
    def test_lazy_builds_match_reference(self, params, min_core):
        g = random_graph(*params)
        lazy, _, _ = make_lazy(g)
        want = Counters()
        for v in range(g.n):
            row = reference_row(lazy, v, min_core, want)
            if v % 2:
                assert lazy.hashed_neighborhood(v, min_core) == set(row)
                want.hash_inserts += len(row)
                want.neighborhoods_built_hash += 1
            else:
                assert lazy.sorted_neighborhood(v, min_core).tolist() == row
                want.neighborhoods_built_sorted += 1
        assert lazy.counters.as_dict() == want.as_dict()

    @settings(max_examples=40, deadline=None)
    @given(params=graph_params, min_core=st.integers(0, 5),
           prepopulate=st.booleans())
    def test_hashed_array_is_sorted_rep(self, params, min_core, prepopulate):
        """A hashed vertex's array is its set, sorted, with no sorted
        representation counted or built for it."""
        g = random_graph(*params)
        lazy, _, _ = make_lazy(g, config=LazyMCConfig(hash_degree_threshold=-1))
        if prepopulate:
            lazy.prepopulate(PrepopulatePolicy.ALL, min_core)
        for v in range(g.n):
            rep = lazy.hashed_neighborhood(v, min_core)
            assert lazy.neighborhood_array(v).tolist() == sorted(rep)
        assert lazy.counters.neighborhoods_built_sorted == 0
        assert lazy.built_counts() == (g.n, 0)

    @settings(max_examples=60, deadline=None)
    @given(params=graph_params, build_core=st.integers(0, 4),
           query_core=st.integers(0, 6), threshold=st.sampled_from([0, 16]))
    def test_right_neighborhood_matches_numpy(self, params, build_core,
                                              query_core, threshold):
        """Rows built under one incumbent, queried under another."""
        g = random_graph(*params)
        cfg = LazyMCConfig(hash_degree_threshold=threshold)
        lazy, _, _ = make_lazy(g, config=cfg)
        lazy.prepopulate(PrepopulatePolicy.ALL, build_core)
        for v in range(g.n):
            arr = lazy.neighborhood_array(v)
            out = arr[arr > v]
            want = out[lazy.core[out] >= query_core].tolist()
            before = lazy.counters.elements_scanned
            got = lazy.right_neighborhood(v, query_core)
            assert type(got) is list and got == want
            assert lazy.counters.elements_scanned - before == len(out)


class TestTranslation:
    def test_to_original_roundtrip(self):
        g = random_graph(15, 0.4, seed=13)
        lazy, order, _ = make_lazy(g)
        originals = lazy.to_original(range(g.n))
        assert sorted(originals) == list(range(g.n))
