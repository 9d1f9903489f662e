"""Tests for the heuristic searches (Alg. 5/6) and NeighborSearch (Alg. 8)."""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import LazyMCConfig, LazyGraph, filtering
from repro.core.filtering import FilterFunnel, neighbor_search
from repro.core.heuristics import (
    HEURISTIC_TOP_K, coreness_based_heuristic_search,
    degree_based_heuristic_search,
)
from repro.graph import coreness, coreness_degree_order, complete_graph
from repro.graph import generators as gen
from repro.instrument import Counters
from repro.intersect.early_exit import (
    EarlyExitConfig, intersect_gt, intersect_size_gt_bool, intersect_size_gt_val,
)
from repro.intersect.hashset import HopscotchSet
from repro.parallel import Incumbent, IncumbentView, SimulatedScheduler
from repro.vc.kernelization import mask_ids
from tests.conftest import brute_force_max_clique, random_graph


def run_degree_heuristic(graph, config=None):
    cfg = config or LazyMCConfig()
    inc = Incumbent()
    inc.offer([0])
    sched = SimulatedScheduler(cfg.threads)
    degree_based_heuristic_search(graph, inc, cfg, sched)
    return inc


def make_lazy(graph, config=None):
    cfg = config or LazyMCConfig()
    core = coreness(graph)
    order = coreness_degree_order(graph, core)
    return LazyGraph(graph, order, core, cfg, Counters())


class TestDegreeHeuristic:
    def test_finds_clique(self):
        g = complete_graph(6)
        inc = run_degree_heuristic(g)
        assert inc.size == 6
        assert g.is_clique(inc.clique)

    def test_planted_clique_found(self):
        """Sparse background, the planted clique dominates degrees."""
        g, members = gen.planted_clique(150, 0.03, 10, seed=5)
        inc = run_degree_heuristic(g)
        assert inc.size == 10

    def test_returns_valid_cliques_on_random(self):
        for seed in range(6):
            g = random_graph(25, 0.4, seed=seed + 60)
            inc = run_degree_heuristic(g)
            assert g.is_clique(inc.clique)
            assert 1 <= inc.size <= len(brute_force_max_clique(g))
            # a greedy heuristic from a top-degree seed finds >= an edge
            if g.m > 0 and g.max_degree() > 0:
                assert inc.size >= 2

    def test_empty_graph_noop(self):
        from repro.graph import empty_graph

        inc = Incumbent()
        sched = SimulatedScheduler(1)
        degree_based_heuristic_search(empty_graph(0), inc, LazyMCConfig(), sched)
        assert inc.size == 0

    def test_top_k_limits_seeds(self):
        g = random_graph(30, 0.3, seed=3)
        sched = SimulatedScheduler(1)
        inc = Incumbent()
        inc.offer([0])
        degree_based_heuristic_search(g, inc, LazyMCConfig(), sched)
        assert len(sched.report.tasks) == min(HEURISTIC_TOP_K, g.n)


def reference_degree_heuristic(graph, incumbent, config, engine):
    """Alg. 5 as it stood on numpy rows, frozen as a differential oracle.

    Every probe hashes a fresh set of the long side's row, every round;
    the candidates are a numpy array narrowed through a numpy buffer.
    The production search must offer the same cliques, in the same
    order, with the same counters.
    """
    n = graph.n
    if n == 0:
        return
    degrees = graph.degrees
    k = min(HEURISTIC_TOP_K, n)
    top = np.argpartition(degrees, n - k)[n - k:]
    top = top[np.argsort(-degrees[top], kind="stable")]

    def run(v, view, counters):
        if int(v) in view.clique:
            return
        nbrs = graph.neighbors(int(v))
        counters.elements_scanned += len(nbrs)
        cand = nbrs[degrees[nbrs] >= view.size]
        clique = [int(v)]
        buf = np.empty(len(cand), dtype=np.int64)
        while len(cand):
            cand_set = set(cand.tolist())
            counters.hash_inserts += len(cand)
            best_u = -1
            best_d = -1
            for w in cand.tolist():
                row = graph.neighbors(w)
                if len(row) <= len(cand):
                    d = intersect_size_gt_val(row, cand_set, best_d,
                                              counters, config.early_exit)
                else:
                    d = intersect_size_gt_val(cand, set(row.tolist()),
                                              best_d, counters,
                                              config.early_exit)
                if d > best_d:
                    best_d = d
                    best_u = w
            if best_u < 0:
                best_u = int(cand[0])
            clique.append(best_u)
            size = intersect_gt(cand, set(graph.neighbors(best_u).tolist()),
                                buf, -1, counters, config.early_exit)
            cand = buf[:size].copy() if size > 0 else np.empty(0, dtype=np.int64)
        view.offer(clique)

    engine.parfor(list(map(int, top)), run, incumbent)


def greedy_clique(graph, start, size):
    """A clique of at most ``size`` vertices grown from ``start``."""
    clique = [start]
    for u in range(graph.n):
        if len(clique) >= size:
            break
        if u not in clique and all(graph.has_edge(u, w) for w in clique):
            clique.append(u)
    return clique


early_exit_configs = st.builds(EarlyExitConfig, enabled=st.booleans(),
                               second_exit=st.booleans())


class TestDegreeHeuristicMatchesReference:
    """Differential check of Alg. 5 against the frozen numpy-row loop."""

    @staticmethod
    def _run(search, graph, seeded, cfg):
        inc = Incumbent()
        inc.offer(seeded)
        sched = SimulatedScheduler(cfg.threads)
        offered = []
        plain_offer = IncumbentView.offer

        def recording(view, clique):
            offered.append(list(clique))
            return plain_offer(view, clique)

        with mock.patch.object(IncumbentView, "offer", recording):
            search(graph, inc, cfg, sched)
        tasks = [(t.task, t.start, t.finish, t.cost)
                 for t in sched.report.tasks]
        return offered, inc.clique, sched.counters.as_dict(), tasks

    @settings(max_examples=80, deadline=None)
    @given(params=st.tuples(st.integers(1, 40), st.floats(0.05, 0.95),
                            st.integers(0, 10_000)),
           data=st.data(), early_exit=early_exit_configs,
           threads=st.sampled_from([1, 3]))
    def test_offers_and_counters_match_reference(self, params, data,
                                                 early_exit, threads):
        n, p, seed = params
        graph = random_graph(n, p, seed)
        # A pre-seeded incumbent: its size drives the degree pre-filter,
        # its members the skipped seeds.
        start = data.draw(st.integers(0, n - 1))
        seeded = greedy_clique(graph, start, data.draw(st.integers(1, 6)))
        cfg = LazyMCConfig(early_exit=early_exit, threads=threads)
        production = self._run(degree_based_heuristic_search, graph,
                               seeded, cfg)
        reference = self._run(reference_degree_heuristic, graph, seeded,
                              cfg)
        assert production == reference


class TestCorenessHeuristic:
    def test_finds_clique_on_web_profile(self):
        """The hierarchical-web family is where this heuristic shines:
        the top coreness level IS the big clique (Table I bold entries)."""
        g = gen.hierarchical_web(2, 2, 12, seed=4)
        lazy = make_lazy(g)
        inc = Incumbent()
        inc.offer([0])
        sched = SimulatedScheduler(1)
        coreness_based_heuristic_search(lazy, inc, LazyMCConfig(), sched)
        assert inc.size == 12
        assert g.is_clique(inc.clique)

    def test_valid_cliques_on_random(self):
        for seed in range(6):
            g = random_graph(25, 0.45, seed=seed + 80)
            lazy = make_lazy(g)
            inc = Incumbent()
            inc.offer([0])
            sched = SimulatedScheduler(1)
            coreness_based_heuristic_search(lazy, inc, LazyMCConfig(), sched)
            assert g.is_clique(inc.clique)
            assert inc.size <= len(brute_force_max_clique(g))

    def test_one_task_per_level(self):
        g = random_graph(30, 0.4, seed=5)
        lazy = make_lazy(g)
        inc = Incumbent()
        inc.offer([0])
        sched = SimulatedScheduler(1)
        coreness_based_heuristic_search(lazy, inc, LazyMCConfig(), sched)
        core = coreness(g)
        levels = {int(c) for c in core if c >= 1}
        assert len(sched.report.tasks) == len(levels)


class TestNeighborSearch:
    def _search_all(self, graph, config=None, incumbent_size=1):
        cfg = config or LazyMCConfig()
        lazy = make_lazy(graph, cfg)
        counters = Counters()
        funnel = FilterFunnel()
        best = []
        for v in range(graph.n):
            view = IncumbentView(incumbent_size, list(range(incumbent_size)))
            neighbor_search(lazy, v, view, cfg, counters, funnel)
            if view.pending and len(view.pending) > len(best):
                best = view.pending
        return best, funnel, counters

    def test_finds_maximum_clique(self):
        for seed in range(5):
            g = random_graph(20, 0.45, seed=seed + 100)
            omega = len(brute_force_max_clique(g))
            best, funnel, _ = self._search_all(g)
            assert len(best) == omega
            assert g.is_clique(best)

    def test_funnel_monotone(self):
        g = random_graph(40, 0.3, seed=6)
        _, funnel, _ = self._search_all(g, incumbent_size=3)
        assert funnel.considered >= funnel.after_coreness >= funnel.after_filter1
        assert funnel.after_filter1 >= funnel.after_filter2 >= funnel.after_filter3
        assert funnel.after_filter3 >= funnel.searched
        assert funnel.searched == funnel.searched_mc + funnel.searched_kvc

    def test_high_incumbent_prunes_everything(self):
        g = random_graph(25, 0.3, seed=7)
        omega = len(brute_force_max_clique(g))
        best, funnel, _ = self._search_all(g, incumbent_size=omega)
        assert best == []  # nothing beats the optimum
        assert funnel.searched <= funnel.considered

    def test_kvc_dispatch_on_dense(self):
        g = complete_graph(12)
        cfg = LazyMCConfig(density_threshold=0.5)
        _, funnel, _ = self._search_all(g, cfg)
        assert funnel.searched_kvc > 0

    def test_mc_dispatch_when_kvc_disabled(self):
        g = complete_graph(12)
        cfg = LazyMCConfig(use_kvc=False)
        _, funnel, _ = self._search_all(g, cfg)
        assert funnel.searched_kvc == 0
        assert funnel.searched_mc > 0

    def test_per_mille_normalization(self):
        f = FilterFunnel(after_coreness=10, after_filter1=5,
                         after_filter2=2, after_filter3=1)
        pm = f.per_mille(1000)
        assert pm == {"coreness": 10.0, "filter1": 5.0,
                      "filter2": 2.0, "filter3": 1.0}

    def test_funnel_merge(self):
        a = FilterFunnel(considered=2, searched=1, density_work={1: 5})
        b = FilterFunnel(considered=3, searched=0, density_work={1: 2, 4: 7})
        a.merge(b)
        assert a.considered == 5
        assert a.density_work == {1: 7, 4: 7}


def reference_degree_filters(lazy, cand, cstar, config, counters):
    """The degree-filter loop as it stood on ``HopscotchSet``.

    A frozen copy of the earlier implementation: the candidate set is a
    hopscotch table and the scanned side of N is rebuilt from ``alive``
    minus ``removed`` for every candidate.  The production loop must
    reproduce it exactly — survivors, m̂, rounds passed and counters.
    """
    rounds = config.filter_rounds
    m_hat = 0
    cand_set = None
    for rnd in range(rounds):
        if cand_set is None:
            cand_set = HopscotchSet.from_iterable(int(x) for x in cand)
            counters.hash_inserts += len(cand)
        final_round = rnd == rounds - 1
        survivors = []
        m_hat = 0
        alive = list(int(x) for x in cand)
        removed = set()
        for u in cand:
            u = int(u)
            row = lazy.neighborhood_array(u, cstar)
            if len(row) <= len(cand_set):
                a_side, b_side = row, cand_set
            else:
                a_side = np.fromiter((w for w in alive if w not in removed),
                                     dtype=np.int64,
                                     count=len(alive) - len(removed))
                b_side = lazy.membership_set(u, cstar)
            if final_round:
                d = intersect_size_gt_val(a_side, b_side, cstar - 2,
                                          counters, config.early_exit)
                if d > cstar - 2:
                    survivors.append(u)
                    m_hat += d
                else:
                    cand_set.discard(u)
                    removed.add(u)
            elif intersect_size_gt_bool(a_side, b_side, cstar - 2,
                                        counters, config.early_exit):
                survivors.append(u)
            else:
                cand_set.discard(u)
                removed.add(u)
        cand = np.asarray(survivors, dtype=np.int64)
        if len(cand) < cstar:
            return survivors, m_hat, rnd
    return [int(x) for x in cand], m_hat, rounds


def reference_induced_adjacency(lazy, candidates, min_core, counters):
    """The induced-adjacency loop as it stood, one numpy scalar at a time."""
    index = {int(u): i for i, u in enumerate(candidates)}
    adj = [set() for _ in candidates]
    for i, u in enumerate(candidates):
        row = lazy.neighborhood_array(int(u), min_core)
        counters.elements_scanned += len(row)
        for w in row:
            j = index.get(int(w))
            if j is not None and j != i:
                adj[i].add(j)
    return adj


graph_params = st.tuples(st.integers(4, 36), st.floats(0.1, 0.9),
                         st.integers(0, 10_000))


class TestFilterLoopMatchesReference:
    """Differential check of the filter funnel against the frozen loop.

    The production loop stops a round once it is doomed (fewer than |C*|
    candidates left); the frozen loop probes the rest of it anyway.  So a
    round that is not doomed must give the frozen survivors, m̂ and
    rounds, a doomed one the same refutation, and no counter may exceed
    the frozen loop's.
    """

    STAGES = ("considered", "after_coreness", "after_filter1",
              "after_filter2", "after_filter3", "searched", "searched_mc",
              "searched_kvc")

    @staticmethod
    def _search_all(graph, cfg, cstar, filters):
        lazy = make_lazy(graph, cfg)
        counters = lazy.counters
        funnel = FilterFunnel()
        calls = []

        def recording(*args):
            survivors, m_hat, passed = filters(*args)
            calls.append((list(survivors), m_hat, passed))
            return survivors, m_hat, passed

        found = []
        with mock.patch.object(filtering, "_degree_filters", recording):
            for v in range(graph.n):
                view = IncumbentView(cstar, list(range(cstar)))
                neighbor_search(lazy, v, view, cfg, counters, funnel)
                found.append(view.pending)
        return calls, dataclasses.asdict(funnel), counters.as_dict(), found

    @settings(max_examples=80, deadline=None)
    @given(params=graph_params, cstar=st.integers(1, 8),
           rounds=st.integers(0, 3),
           threshold=st.sampled_from([2, 8, 16]),
           early_exit=early_exit_configs)
    def test_neighbor_search_matches_reference(self, params, cstar, rounds,
                                               threshold, early_exit):
        n, p, seed = params
        graph = random_graph(n, p, seed)
        cfg = LazyMCConfig(filter_rounds=rounds,
                           hash_degree_threshold=threshold,
                           early_exit=early_exit)
        calls, funnel, counters, found = self._search_all(
            graph, cfg, cstar, filtering._degree_filters)
        ref_calls, ref_funnel, ref_counters, ref_found = self._search_all(
            graph, cfg, cstar, reference_degree_filters)
        assert len(calls) == len(ref_calls)
        for (survivors, m_hat, passed), (ref_survivors, ref_m_hat,
                                         ref_passed) in zip(calls, ref_calls):
            assert passed == ref_passed
            if passed == rounds:
                assert (survivors, m_hat) == (ref_survivors, ref_m_hat)
            else:
                # Stopped at the doom: the frozen loop's survivors are
                # what it went on to keep of the candidates left.
                assert len(survivors) == cstar - 1
                assert set(ref_survivors) <= set(survivors)
        assert [funnel[k] for k in self.STAGES] == \
            [ref_funnel[k] for k in self.STAGES]
        assert found == ref_found
        assert all(counters[k] <= ref_counters[k] for k in ref_counters)

    @settings(max_examples=80, deadline=None)
    @given(params=graph_params, data=st.data(),
           min_core=st.integers(0, 4))
    def test_induced_adjacency_matches_reference(self, params, data,
                                                 min_core):
        """The mask extraction against the frozen set loop, for
        candidates in any order: bit j of mask i iff j in set i, and the
        same counters."""
        n, p, seed = params
        graph = random_graph(n, p, seed)
        picked = data.draw(st.permutations(
            data.draw(st.lists(st.integers(0, n - 1), unique=True))))
        candidates = np.asarray(picked, dtype=np.int64)
        counters = Counters()
        masks = filtering._induced_masks(make_lazy(graph), candidates,
                                         min_core, counters)
        want_counters = Counters()
        adj = reference_induced_adjacency(make_lazy(graph), candidates,
                                          min_core, want_counters)
        assert masks == [sum(1 << j for j in s) for s in adj]
        assert counters.as_dict() == want_counters.as_dict()
        # The filters hand over ascending candidates; for those the sets
        # MC arm's sets iterate as the frozen loop's did.
        ascending = np.sort(candidates)
        masks = filtering._induced_masks(make_lazy(graph), ascending,
                                         min_core, Counters())
        adj = reference_induced_adjacency(make_lazy(graph), ascending,
                                          min_core, Counters())
        assert [list(set(mask_ids(m))) for m in masks] == \
            [list(s) for s in adj]
