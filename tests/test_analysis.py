"""Tests for the post-solve analysis module."""

import json

import pytest

from repro import lazymc
from repro.analysis import incumbent_growth, solve_record
from repro.graph import may_must_report
from repro.graph.generators import planted_clique, with_periphery
from tests.conftest import random_graph


@pytest.fixture(scope="module")
def solved():
    core, _ = planted_clique(300, 0.02, 10, seed=5)
    graph = with_periphery(core, 900, seed=6)
    return graph, lazymc(graph)


def built(result) -> int:
    return (result.counters.neighborhoods_built_hash
            + result.counters.neighborhoods_built_sorted)


class TestWorkAvoidance:
    def test_fractions_bounded(self, solved):
        graph, result = solved
        assert 0 <= built(result) <= graph.n
        assert 0 <= result.funnel.searched <= graph.n
        rep = may_must_report(graph, result.omega)
        assert rep.must_vertex_fraction <= rep.may_vertex_fraction

    def test_laziness_visible(self, solved):
        """On a periphery-dominated instance almost nothing is built."""
        graph, result = solved
        assert built(result) < 0.2 * graph.n
        assert result.omega == 10


class TestIncumbentGrowth:
    def test_strictly_increasing(self, solved):
        _, result = solved
        growth = incumbent_growth(result)
        sizes = [s for _, s in growth]
        assert sizes == sorted(set(sizes))
        assert sizes[-1] == result.omega

    def test_times_nondecreasing(self, solved):
        _, result = solved
        times = [t for t, _ in incumbent_growth(result)]
        assert times == sorted(times)


class TestFormatting:
    def test_record_json_round_trip(self, solved):
        graph, result = solved
        record = solve_record("lazymc", graph, result)
        decoded = json.loads(json.dumps(record))
        assert decoded == record
        assert decoded["omega"] == 10
        assert decoded["funnel"]["considered"] >= decoded["funnel"]["searched"]
        assert set(decoded["phases_seconds"]) == set(decoded["phases_work"])
        assert sum(decoded["phases_work"].values()) == decoded["work"]

    def test_timed_out_marker(self):
        from repro import LazyMCConfig

        g = random_graph(50, 0.5, seed=9)
        r = lazymc(g, LazyMCConfig(max_work=100))
        record = solve_record("lazymc", g, r)
        assert record["timed_out"] is True and record["exact"] is False
