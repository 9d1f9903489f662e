"""LazyMC's set-up work follows the zone of interest, not |V| (§III-A).

A sparse tree periphery (``with_periphery``) grows a registry graph
without touching its clique: every added vertex has degree at most a few,
so it fails the degree test of Alg. 1 line 4 and must cost the k-core and
sort phases one degree read each, not a peel and a sort slot.
"""

import numpy as np
import pytest

from repro.baselines import mcbrb
from repro.core.solver import lazymc
from repro.datasets import EXPECTED_OMEGA, load
from repro.graph.generators import with_periphery

NAMES = ("uk-union", "friendster")
SCALES = (0, 4)


def _scaled(name, scale):
    core = load(name)
    return with_periphery(core, scale * core.n, seed=5)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", NAMES)
def test_exact_and_charged_by_survivors(name, scale):
    graph = _scaled(name, scale)
    result = lazymc(graph)
    assert result.omega == EXPECTED_OMEGA[name]
    assert result.verify(graph)
    # S0: the vertices that pass the degree test against the incumbent
    # the degree heuristic left.
    s0 = graph.degrees >= result.heuristic_degree_size
    vol = int(graph.degrees[s0].sum())
    work = result.timers.work
    assert work["kcore"] + work["sort"] == graph.n + vol + 2 * int(s0.sum())


def test_periphery_costs_less_than_mcbrb_on_uk_union():
    graph = _scaled("uk-union", 4)
    result = lazymc(graph)
    # No periphery vertex passes the degree test, so the periphery adds
    # only its degree reads to LazyMC's work; MC-BRB peels all of it.
    n_core = load("uk-union").n
    assert np.all(graph.degrees[n_core:] < result.heuristic_degree_size)
    assert result.counters.work < mcbrb(graph).counters.work
