"""Graphs bit-identical: pinned fingerprints and frozen reference builders.

``graph_fingerprints.json`` pins a sha256 over the dtypes, lengths and
bytes of ``indptr`` and ``indices`` for every registry graph and for the
benchmark's dimacs-synth draws of seeds 1, 2 and 7.  A change to the
builders or the generators that claims identical graphs must pass these
tests unchanged.

The reference functions below are frozen copies of the one-draw-per-call
generator loops and of the ``np.lexsort`` CSR build that the vectorised
code replaced; hypothesis checks the two against each other on drawn
parameters.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import registry
from repro.graph import generators as gen
from repro.graph.builders import _csr_from_directed, add_edges, from_edges
from repro.graph.csr import CSRGraph, INDPTR_DTYPE, VERTEX_DTYPE
from repro.graph.fingerprint import fingerprint

ROOT = Path(__file__).resolve().parents[2]
PINS = json.loads((Path(__file__).with_name("graph_fingerprints.json"))
                  .read_text())


def _dimacs_build():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules[spec.name].WORKLOADS["dimacs-synth"].build


# -- pins ---------------------------------------------------------------------


def test_pins_cover_registry_and_dimacs_draws():
    dimacs = {k for k in PINS if k.startswith("dimacs-synth/")}
    assert set(PINS) - dimacs == set(registry.names())
    assert {k.split("/")[1] for k in dimacs} == {"1", "2", "7"}


@pytest.mark.parametrize("name", registry.names())
def test_registry_graph_is_pinned(name):
    assert fingerprint(registry.spec(name).build()) == PINS[name]


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_dimacs_synth_draws_are_pinned(seed):
    graphs = _dimacs_build()(seed)
    assert len(graphs) == 6
    for name, graph in graphs:
        assert fingerprint(graph) == PINS[f"dimacs-synth/{seed}/{name}"], name


def test_fingerprint_sees_dtype_and_bytes():
    g = gen.gnp_random(30, 0.3, seed=1)
    assert fingerprint(g) == fingerprint(from_edges(g.n, g.edge_array()))
    moved = CSRGraph(g.indptr, g.indices.copy(), validate=False)
    moved.indices[0] += 1
    assert fingerprint(moved) != fingerprint(g)
    wide = CSRGraph(g.indptr, g.indices, validate=False)
    wide.indices = g.indices.astype(np.int64)
    assert fingerprint(wide) != fingerprint(g)


# -- frozen reference builders ------------------------------------------------


def _reference_csr(n, src, dst):
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    if len(src):
        keep = np.empty(len(src), dtype=bool)
        keep[0] = True
        np.not_equal(src[1:] * np.int64(n) + dst[1:],
                     src[:-1] * np.int64(n) + dst[:-1], out=keep[1:])
        src = src[keep]
        dst = dst[keep]
    counts = np.bincount(src, minlength=n).astype(INDPTR_DTYPE)
    indptr = np.zeros(n + 1, dtype=INDPTR_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, dst.astype(VERTEX_DTYPE), validate=False)


def _reference_from_edges(n, edges):
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                     dtype=np.int64)
    if arr.size == 0:
        return CSRGraph(np.zeros(n + 1, dtype=INDPTR_DTYPE),
                        np.empty(0, dtype=VERTEX_DTYPE), validate=False)
    arr = arr[arr[:, 0] != arr[:, 1]]
    src = np.concatenate([arr[:, 0], arr[:, 1]])
    dst = np.concatenate([arr[:, 1], arr[:, 0]])
    return _reference_csr(n, src, dst)


def _reference_gnp_random(n, p, seed):
    if p == 0.0 or n < 2:
        return _reference_from_edges(n, [])
    rng = np.random.default_rng(seed)
    total = n * (n - 1) // 2
    if p == 1.0:
        picks = np.arange(total, dtype=np.int64)
    else:
        expected = int(total * p + 10 * np.sqrt(total * p) + 10)
        gaps = rng.geometric(p, size=max(expected, 16))
        picks = np.cumsum(gaps) - 1
        while picks[-1] < total - 1 and p > 0:
            more = rng.geometric(p, size=max(expected // 4, 16))
            picks = np.concatenate([picks, picks[-1] + np.cumsum(more)])
        picks = picks[picks < total]
    u = (n - 2 - np.floor(np.sqrt(-8.0 * picks + 4.0 * n * (n - 1) - 7) / 2.0 - 0.5)).astype(np.int64)
    v = (picks + u + 1 - u * np.int64(n) + u * (u + 1) // 2).astype(np.int64)
    return _reference_from_edges(n, np.stack([u, v], axis=1))


def _reference_powerlaw_cluster(n, m, triangle_prob, seed):
    rng = np.random.default_rng(seed)
    repeated = list(range(m))
    edges = []
    adjacency = [[] for _ in range(n)]

    def connect(u, t):
        edges.append((u, t))
        adjacency[u].append(t)
        adjacency[t].append(u)
        repeated.extend([u, t])

    for v in range(m, n):
        picked = set()
        count = 0
        last_target = None
        while count < m:
            if last_target is not None and rng.random() < triangle_prob:
                nbrs = [x for x in adjacency[last_target]
                        if x != v and x not in picked]
                if nbrs:
                    t = nbrs[rng.integers(len(nbrs))]
                    picked.add(t)
                    connect(v, t)
                    count += 1
                    continue
            t = repeated[rng.integers(len(repeated))] if repeated else int(rng.integers(v))
            if t != v and t not in picked:
                picked.add(t)
                connect(v, t)
                last_target = t
                count += 1
    return _reference_from_edges(n, edges)


def _reference_grid_road(rows, cols, k4_fraction, seed):
    rng = np.random.default_rng(seed)

    def vid(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    for r in range(rows - 1):
        for c in range(cols - 1):
            if rng.random() < k4_fraction:
                edges.append((vid(r, c), vid(r + 1, c + 1)))
                edges.append((vid(r, c + 1), vid(r + 1, c)))
    return _reference_from_edges(rows * cols, edges)


def _reference_relaxed_caveman(num_cliques, clique_size, rewire_prob, seed):
    rng = np.random.default_rng(seed)
    n = num_cliques * clique_size
    edges = []
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                u, v = base + i, base + j
                if rng.random() < rewire_prob:
                    w = int(rng.integers(n))
                    if w != u:
                        v = w
                edges.append((u, v))
    return _reference_from_edges(n, edges)


def _reference_with_periphery(core_graph, extra, attach_prob, seed):
    rng = np.random.default_rng(seed)
    if extra <= 0:
        return core_graph
    n0 = core_graph.n
    n = n0 + extra
    edges = []
    for v in range(n0, n):
        edges.append((int(rng.integers(v)), v))
        if rng.random() < attach_prob:
            edges.append((int(rng.integers(v)), v))
    base = core_graph.edge_array().astype(np.int64)
    arr = np.asarray(edges, dtype=np.int64)
    return _reference_from_edges(n, np.concatenate([base, arr]) if len(base) else arr)


def _reference_hierarchical_web(levels, branching, core_clique, seed):
    rng = np.random.default_rng(seed)
    edges = []
    uu, vv = np.triu_indices(core_clique, k=1)
    edges.extend(zip(uu.tolist(), vv.tolist()))
    next_id = core_clique
    frontier = list(range(core_clique))
    for _ in range(levels):
        new_frontier = []
        for v in frontier:
            for _ in range(branching):
                edges.append((v, next_id))
                if rng.random() < 0.3 and next_id > core_clique:
                    other = int(rng.integers(core_clique, next_id))
                    edges.append((other, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
        if len(frontier) > 4000:
            break
    return _reference_from_edges(next_id, edges)


def _reference_citation_layers(n, out_degree, recency_bias, seed):
    rng = np.random.default_rng(seed)
    edges = []
    for v in range(1, n):
        k = min(out_degree, v)
        u = (v * rng.random(k) ** recency_bias).astype(np.int64)
        for t in np.unique(u):
            edges.append((v, int(t)))
    return _reference_from_edges(n, edges)


def _reference_star_forest_plus(n_hubs, leaves_per_hub, extra_p, seed):
    rng = np.random.default_rng(seed)
    n = n_hubs * (1 + leaves_per_hub)
    edges = []
    for h in range(n_hubs):
        base = n_hubs + h * leaves_per_hub
        for i in range(leaves_per_hub):
            edges.append((h, base + i))
    for h1 in range(n_hubs):
        for h2 in range(h1 + 1, n_hubs):
            if rng.random() < 0.5:
                edges.append((h1, h2))
    noise = gen.gnp_random(n, extra_p, seed=rng.integers(2**31)).edge_array().astype(np.int64)
    # The reshape is new: without it, no hub-pair edge but some noise
    # (two hubs, no leaves) made the old code fail to concatenate.
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(noise):
        arr = np.concatenate([arr, noise])
    return _reference_from_edges(n, arr)


# -- the vectorised code against the references --------------------------------

seeds = st.integers(0, 2**32)
probs = st.floats(0.0, 1.0)


def _same(got: CSRGraph, want: CSRGraph):
    assert fingerprint(got) == fingerprint(want)


@st.composite
def edge_lists(draw):
    """``(n, pairs)`` with duplicate, reversed and self-loop pairs."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return 0, []
    ids = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=120))
    if pairs:
        again = st.lists(st.sampled_from(pairs), max_size=20)
        pairs += [(v, u) for u, v in draw(again)] + draw(again)
    return n, pairs


@given(edge_lists())
@settings(max_examples=200, deadline=None)
def test_one_key_csr_build_matches_lexsort(case):
    n, pairs = case
    want = _reference_from_edges(n, pairs)
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    for edges in (pairs, tuple(pairs), arr, iter(pairs)):
        _same(from_edges(n, edges), want)
    src = np.concatenate([arr[:, 0], arr[:, 1]])
    dst = np.concatenate([arr[:, 1], arr[:, 0]])
    keep = src != dst
    _same(_csr_from_directed(n, src[keep], dst[keep]),
          _reference_csr(n, src[keep], dst[keep]))


@given(edge_lists(), edge_lists())
@settings(max_examples=100, deadline=None)
def test_add_edges_matches_reference(base, extra):
    n, pairs = base
    _, more = extra
    more = [(u % n, v % n) for u, v in more] if n else []
    g = from_edges(n, pairs)
    want = _reference_from_edges(n, list(map(tuple, g.edge_array().tolist())) + more)
    _same(add_edges(g, more), want)
    _same(add_edges(g, np.asarray(more, dtype=np.int64).reshape(-1, 2)), want)


@given(st.integers(0, 80),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(1e-12, 1.0)), seeds)
@settings(max_examples=80, deadline=None)
def test_gnp_random_matches_reference(n, p, seed):
    # At a tiny p the reference's gap sums overflow int64 and it may never
    # return; test_generators_extra covers that range.
    _same(gen.gnp_random(n, p, seed=seed), _reference_gnp_random(n, p, seed))


@given(st.integers(2, 120), st.integers(1, 6), probs, seeds)
@settings(max_examples=60, deadline=None)
def test_powerlaw_cluster_matches_reference(n, m, tri, seed):
    m = min(m, n - 1)
    _same(gen.powerlaw_cluster(n, m, tri, seed=seed),
          _reference_powerlaw_cluster(n, m, tri, seed))


@given(st.integers(0, 12), st.integers(0, 12), probs, seeds)
@settings(max_examples=60, deadline=None)
def test_grid_road_matches_reference(rows, cols, frac, seed):
    _same(gen.grid_road(rows, cols, k4_fraction=frac, seed=seed),
          _reference_grid_road(rows, cols, frac, seed))


@given(st.integers(0, 8), st.integers(0, 9), probs, seeds)
@settings(max_examples=60, deadline=None)
def test_relaxed_caveman_matches_reference(caves, size, rewire, seed):
    _same(gen.relaxed_caveman(caves, size, rewire, seed=seed),
          _reference_relaxed_caveman(caves, size, rewire, seed))


@given(edge_lists(), st.integers(-2, 300), probs, seeds)
@settings(max_examples=60, deadline=None)
def test_with_periphery_matches_reference(core, extra, attach, seed):
    n, pairs = core
    core_graph = from_edges(max(n, 1), pairs)
    _same(gen.with_periphery(core_graph, extra, attach_prob=attach, seed=seed),
          _reference_with_periphery(core_graph, extra, attach, seed))


@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 12), seeds)
@settings(max_examples=40, deadline=None)
def test_hierarchical_web_matches_reference(levels, branching, core, seed):
    _same(gen.hierarchical_web(levels, branching, core_clique=core, seed=seed),
          _reference_hierarchical_web(levels, branching, core, seed))


@given(st.integers(0, 150), st.integers(0, 10), st.floats(0.5, 3.0), seeds)
@settings(max_examples=60, deadline=None)
def test_citation_layers_matches_reference(n, out_degree, bias, seed):
    _same(gen.citation_layers(n, out_degree, recency_bias=bias, seed=seed),
          _reference_citation_layers(n, out_degree, bias, seed))


@given(st.integers(0, 12), st.integers(0, 12), st.floats(0.0, 0.2), seeds)
@settings(max_examples=60, deadline=None)
def test_star_forest_plus_matches_reference(hubs, leaves, noise_p, seed):
    _same(gen.star_forest_plus(hubs, leaves, noise_p, seed=seed),
          _reference_star_forest_plus(hubs, leaves, noise_p, seed))
