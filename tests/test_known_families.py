"""Integration suite over graph families with provable maximum cliques.

Every solver in the repository is checked against closed-form ω values on
structured families — the adversarial complement to the randomized
cross-checks.  These families stress specific machinery: complete
multipartite graphs defeat degree heuristics, windmills stress shared
vertices, barbells stress disconnected dense regions, hypercubes and
bipartite graphs make the coreness bound maximally misleading.
"""

import itertools

import pytest

from repro import LazyMCConfig, lazymc
from repro.baselines import domega, mcbrb, pmc
from repro.graph import CSRGraph, from_edges


def complete_multipartite(*part_sizes: int) -> CSRGraph:
    """ω = number of parts (pick one vertex per part)."""
    n = sum(part_sizes)
    part_of = []
    for i, s in enumerate(part_sizes):
        part_of.extend([i] * s)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if part_of[u] != part_of[v]]
    return from_edges(n, edges)


def turan(n: int, r: int) -> CSRGraph:
    """Turán graph T(n, r): complete multipartite, parts as equal as
    possible; ω = r."""
    sizes = [n // r + (1 if i < n % r else 0) for i in range(r)]
    return complete_multipartite(*sizes)


def cocktail_party(k: int) -> CSRGraph:
    """K_{k x 2}: complete graph on 2k vertices minus a perfect matching;
    ω = k."""
    edges = [(u, v) for u in range(2 * k) for v in range(u + 1, 2 * k)
             if not (u // 2 == v // 2 and u % 2 == 0 and v == u + 1)]
    return from_edges(2 * k, edges)


def windmill(blades: int, blade_size: int) -> CSRGraph:
    """``blades`` cliques of ``blade_size`` sharing vertex 0; ω = blade_size."""
    edges = []
    next_id = 1
    for _ in range(blades):
        members = [0] + list(range(next_id, next_id + blade_size - 1))
        next_id += blade_size - 1
        edges.extend(itertools.combinations(members, 2))
    return from_edges(next_id, edges)


def barbell(k: int, path: int) -> CSRGraph:
    """Two K_k connected by a path of ``path`` vertices; ω = k."""
    edges = list(itertools.combinations(range(k), 2))
    edges += list(itertools.combinations(range(k, 2 * k), 2))
    chain = [0] + list(range(2 * k, 2 * k + path)) + [k]
    edges += list(zip(chain, chain[1:]))
    return from_edges(2 * k + path, edges)


def hypercube(d: int) -> CSRGraph:
    """Q_d: triangle-free, ω = 2."""
    n = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(n) for b in range(d)
             if v < v ^ (1 << b)]
    return from_edges(n, edges)


def petersen() -> CSRGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return from_edges(10, outer + inner + spokes)


def triangular_graph(n: int) -> CSRGraph:
    """Line graph of K_n: vertices are the pairs, adjacency = shared
    endpoint; ω = n - 1 (a star's edges)."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = []
    for (a, b), i in index.items():
        for (c, d), j in index.items():
            if i < j and len({a, b} & {c, d}) == 1:
                edges.append((i, j))
    return from_edges(len(pairs), edges)


FAMILIES = {
    "multipartite_3_parts": (lambda: complete_multipartite(4, 3, 5), 3),
    "multipartite_uneven": (lambda: complete_multipartite(1, 1, 8, 2), 4),
    "turan_12_4": (lambda: turan(12, 4), 4),
    "turan_15_5": (lambda: turan(15, 5), 5),
    "cocktail_party_5": (lambda: cocktail_party(5), 5),
    "windmill_4x5": (lambda: windmill(4, 5), 5),
    "windmill_6x3": (lambda: windmill(6, 3), 3),
    "barbell_6": (lambda: barbell(6, 3), 6),
    "hypercube_4": (lambda: hypercube(4), 2),
    "hypercube_5": (lambda: hypercube(5), 2),
    "petersen": (petersen, 2),
    "triangular_7": (lambda: triangular_graph(7), 6),
    "cycle_9": (lambda: from_edges(9, [(i, (i + 1) % 9) for i in range(9)]), 2),
    "wheel_8": (lambda: from_edges(
        9, [(0, i) for i in range(1, 9)] +
        [(i, i % 8 + 1) for i in range(1, 9)]), 3),
}

SOLVERS = {
    "lazymc": lambda g: lazymc(g).omega,
    "lazymc_mt": lambda g: lazymc(g, LazyMCConfig(threads=8)).omega,
    "pmc": lambda g: pmc(g).omega,
    "domega_ls": lambda g: domega(g, "ls").omega,
    "domega_bs": lambda g: domega(g, "bs").omega,
    "mcbrb": lambda g: mcbrb(g).omega,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_known_family(family, solver):
    build, expected = FAMILIES[family]
    graph = build()
    assert SOLVERS[solver](graph) == expected, (family, solver)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_clique_is_valid(family):
    build, expected = FAMILIES[family]
    graph = build()
    result = lazymc(graph)
    assert graph.is_clique(result.clique)
    assert len(result.clique) == expected
