"""Bit-parallel kernel: equivalence with the sets backend, resume, budget.

The BBMC-style :class:`~repro.mc.bitkernel.BitMCSubgraphSolver` must be a
drop-in for :class:`~repro.mc.branch_bound.MCSubgraphSolver`: same exact
answers at every density, same checkpoint/resume contract, same budget
discipline.  The hypothesis suites here are the net that lets the bit
kernel's refinements (popcount pre-bound, pruned-first color classes)
evolve without silently changing answers.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BudgetExceeded
from repro.instrument import Counters, WorkBudget
from repro.mc import BitMCSubgraphSolver, MCSubgraphSolver


def masks_of(adj):
    return [sum(1 << u for u in s) for s in adj]


def _random_adj(n: int, p: float, seed: int) -> list[set]:
    """G(n, p) as set adjacency over local ids, stdlib PRNG."""
    import random

    rng = random.Random(seed)
    adj: list[set] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def _is_clique(adj: list[set], clique: list[int]) -> bool:
    return all(v in adj[u] for i, u in enumerate(clique)
               for v in clique[i + 1:])


class TestBitsVsSetsEquivalence:
    @given(n=st.integers(1, 30), p=st.floats(0.05, 0.95),
           seed=st.integers(0, 10**6), lb=st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_same_size_and_valid(self, n, p, seed, lb):
        adj = _random_adj(n, p, seed)
        sets_found = MCSubgraphSolver().solve(adj, lower_bound=lb)
        bits_found = BitMCSubgraphSolver().solve(masks_of(adj),
                                                 lower_bound=lb)
        if sets_found is None:
            assert bits_found is None
        else:
            assert bits_found is not None
            assert len(bits_found) == len(sets_found)
            assert len(bits_found) > lb
            assert len(set(bits_found)) == len(bits_found)
            assert _is_clique(adj, bits_found)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_density_sweep(self, p):
        for seed in range(4):
            adj = _random_adj(24, p, seed * 31 + 5)
            sets_found = MCSubgraphSolver().solve(adj)
            bits_found = BitMCSubgraphSolver().solve(masks_of(adj))
            assert len(bits_found) == len(sets_found)
            assert _is_clique(adj, bits_found)

    def test_empty_matrix(self):
        assert BitMCSubgraphSolver().solve([]) is None

    def test_charges_words(self):
        adj = _random_adj(16, 0.6, 9)
        counters = Counters()
        found = BitMCSubgraphSolver(counters=counters).solve(
            masks_of(adj))
        assert _is_clique(adj, found)
        assert counters.words_scanned > 0


class TestBitsBudgetParity:
    def test_tiny_budget_trips(self):
        adj = _random_adj(40, 0.7, 11)
        counters = Counters()
        budget = WorkBudget(max_work=5, counters=counters)
        solver = BitMCSubgraphSolver(counters=counters, budget=budget)
        with pytest.raises(BudgetExceeded):
            solver.solve(masks_of(adj))
        assert counters.work > 5

    def test_both_backends_trip_on_tiny_budget(self):
        # Work totals differ by design (words vs elements), but both
        # backends must honor the same budget discipline: a budget far
        # below either backend's full-solve cost trips both.
        adj = _random_adj(40, 0.7, 11)
        for solver_cls, graph in ((MCSubgraphSolver, adj),
                                  (BitMCSubgraphSolver, masks_of(adj))):
            counters = Counters()
            budget = WorkBudget(max_work=50, counters=counters)
            with pytest.raises(BudgetExceeded):
                solver_cls(counters=counters, budget=budget).solve(graph)

    def test_ample_budget_does_not_trip(self):
        adj = _random_adj(24, 0.5, 2)
        counters = Counters()
        budget = WorkBudget(max_work=10**9, counters=counters)
        base = MCSubgraphSolver().solve(adj)
        found = BitMCSubgraphSolver(counters=counters,
                                    budget=budget).solve(masks_of(adj))
        assert len(found) == len(base)
