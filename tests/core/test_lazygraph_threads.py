"""Real-thread safety of the lazy graph's double-checked construction.

The simulated scheduler never contends, but the lazy graph is documented
as safe under real ``threading`` use; this hammers concurrent construction
of the same neighborhoods from many OS threads and checks that every
thread observes identical, correct representations and each is built once.
"""

import threading

from repro.core import LazyGraph, LazyMCConfig
from repro.graph import coreness, coreness_degree_order
from repro.instrument import Counters
from tests.conftest import random_graph


def test_concurrent_construction_builds_once_and_correctly():
    g = random_graph(60, 0.3, seed=123)
    core = coreness(g)
    order = coreness_degree_order(g, core)
    counters = Counters()
    lazy = LazyGraph(g, order, core, LazyMCConfig(), counters)

    results: list[dict] = [dict() for _ in range(8)]
    barrier = threading.Barrier(8)

    def worker(idx: int) -> None:
        barrier.wait()
        for v in range(g.n):
            results[idx][v] = frozenset(lazy.hashed_neighborhood(v))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    # All threads saw identical sets.
    for v in range(g.n):
        views = {results[i][v] for i in range(8)}
        assert len(views) == 1
    # And the sets are correct.
    for v in range(g.n):
        expected = frozenset(
            int(order.old_to_new[u])
            for u in g.neighbors(order.relabelled_to_original(v)))
        assert results[0][v] == expected
    # Each neighborhood was constructed exactly once (double-checked
    # locking held).
    assert counters.neighborhoods_built_hash == g.n


def test_concurrent_mixed_representations():
    g = random_graph(40, 0.4, seed=321)
    core = coreness(g)
    order = coreness_degree_order(g, core)
    lazy = LazyGraph(g, order, core, LazyMCConfig(), Counters())

    errors: list[Exception] = []

    def worker(kind: str) -> None:
        try:
            for v in range(g.n):
                if kind == "hash":
                    set(lazy.hashed_neighborhood(v))
                else:
                    list(lazy.sorted_neighborhood(v))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=("hash" if i % 2 else "sorted",))
               for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for v in range(g.n):
        assert list(lazy.sorted_neighborhood(v)) == sorted(lazy.hashed_neighborhood(v))
