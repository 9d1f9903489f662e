"""Synthetic graph generators.

The paper evaluates on 28 real graphs spanning four structural families:
road networks (tiny degeneracy, clique-core gap zero), power-law social
networks (large gap, small cliques), web crawls (very large cliques, gap
zero), and dense biological correlation networks (density up to ~0.3, large
cliques *and* large gap).  These generators produce seeded, reproducible
analogues of each family at laptop scale; the dataset registry
(:mod:`repro.datasets`) maps paper graph names onto parameterizations.

Every generator returns a :class:`~repro.graph.csr.CSRGraph` that is a
pure function of its arguments and ``seed``: the same call builds the same
``indptr`` and ``indices`` bytes.  Each draws exactly the stream that
one-scalar-call-per-draw code on ``numpy.random.default_rng(seed)`` would;
runs of plain coin flips are drawn as one array, and the registry's loops
that mix branching with draws take their scalars from
:class:`_ScalarDraws`.  A ``Generator`` passed as ``seed`` is drawn from
as is and left at an unspecified position.
"""

from __future__ import annotations

import operator

import numpy as np

from ..errors import GraphConstructionError
from .builders import add_edges, from_edges
from .csr import CSRGraph

_UINT32_MAX = 0xFFFFFFFF
#: Raw words :class:`_ScalarDraws` reads from the bit generator at a time.
_DRAW_BLOCK = 2048


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _pairs(src, dst) -> np.ndarray:
    """Two equal-length id sequences as an ``(m, 2)`` int64 edge array."""
    return np.stack([np.asarray(src, dtype=np.int64),
                     np.asarray(dst, dtype=np.int64)], axis=1)


class _ScalarDraws:
    """Scalar ``random()`` and ``integers(high)`` served from bulk raw words.

    Each call returns what the same call on the wrapped ``Generator`` would
    (a ``PCG64`` one, as ``default_rng`` makes), at a fraction of the cost
    of a numpy scalar call:

    * ``random()`` is ``(w >> 11) * 2**-53`` for one whole 64-bit word ``w``;
    * ``integers(high)`` is Lemire's bounded draw on a 32-bit half: the low
      half of a new word first, its high half on the next integer draw
      (``random()`` in between leaves that pending half in place), a
      rejection draws the next half, and ``high == 1`` draws nothing.

    The words are read ahead ``_DRAW_BLOCK`` at a time, so the wrapped
    generator must never be drawn from again: it belongs to this object.
    Highs outside ``[1, 2**32 - 1]`` raise, because numpy's 64-bit path is
    not reproduced; ``rng.integers(low, high)`` is
    ``low + integers(high - low)``.
    """

    __slots__ = ("_raw", "_words", "_half")

    def __init__(self, rng: np.random.Generator):
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError("_ScalarDraws reproduces PCG64 streams only, not "
                            f"{type(bit_generator).__name__}")
        state = bit_generator.state
        self._raw = bit_generator.random_raw
        #: Unused words, last word first.
        self._words: list[int] = []
        #: The bit generator's buffered high half, if a draw left one.
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _word(self) -> int:
        words = self._words
        if not words:
            words = self._words = self._raw(_DRAW_BLOCK)[::-1].tolist()
        return words.pop()

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _UINT32_MAX

    def random(self) -> float:
        """A float in ``[0, 1)``, as ``Generator.random()``."""
        return (self._word() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, high: int) -> int:
        """An int in ``[0, high)``, as ``Generator.integers(high)``."""
        high = operator.index(high)
        if not 1 <= high <= _UINT32_MAX:
            raise ValueError(f"high={high} is outside [1, {_UINT32_MAX}]")
        if high == 1:
            return 0
        m = self._uint32() * high
        if (m & _UINT32_MAX) < high:
            threshold = (1 << 32) % high
            while (m & _UINT32_MAX) < threshold:
                m = self._uint32() * high
        return m >> 32


def gnp_random(n: int, p: float, seed=0) -> CSRGraph:
    """Erdős–Rényi G(n, p), vectorized via geometric edge skipping.

    Uses the standard O(n + m) skip-sampling over the upper triangle rather
    than materializing all n(n-1)/2 coin flips.
    """
    if not 0.0 <= p <= 1.0:
        raise GraphConstructionError("p must be in [0, 1]")
    if p == 0.0 or n < 2:
        return from_edges(n, [])
    rng = _rng(seed)
    total = n * (n - 1) // 2
    if p == 1.0:
        picks = np.arange(total, dtype=np.int64)
    else:
        # Geometric gaps between successive selected pair-indices.  A gap
        # above ``total`` leaves the triangle, so clipping it to
        # ``total + 1`` moves no pick below ``total``; it keeps a tiny
        # ``p``'s gaps (up to the int64 maximum) from overflowing the sums.
        expected = int(total * p + 10 * np.sqrt(total * p) + 10)
        gaps = np.minimum(rng.geometric(p, size=max(expected, 16)), total + 1)
        picks = np.cumsum(gaps) - 1
        while picks[-1] < total - 1 and p > 0:
            more = np.minimum(rng.geometric(p, size=max(expected // 4, 16)),
                              total + 1)
            picks = np.concatenate([picks, picks[-1] + np.cumsum(more)])
        picks = picks[picks < total]
    # Unrank pair index -> (u, v) with u < v, row-major over the triangle.
    u = (n - 2 - np.floor(np.sqrt(-8.0 * picks + 4.0 * n * (n - 1) - 7) / 2.0 - 0.5)).astype(np.int64)
    v = (picks + u + 1 - u * np.int64(n) + u * (u + 1) // 2).astype(np.int64)
    return from_edges(n, np.stack([u, v], axis=1))


def planted_clique(n: int, p: float, clique_size: int, seed=0) -> tuple[CSRGraph, np.ndarray]:
    """G(n, p) with a clique planted on ``clique_size`` random vertices.

    Returns ``(graph, clique_vertices)``.  With sparse ``p`` this yields the
    web-crawl profile: the planted clique dominates coreness, giving
    clique-core gap zero and a heuristic-findable optimum.
    """
    if clique_size > n:
        raise GraphConstructionError("clique larger than graph")
    rng = _rng(seed)
    g = gnp_random(n, p, seed=rng.integers(2**31))
    members = rng.choice(n, size=clique_size, replace=False)
    uu, vv = np.triu_indices(clique_size, k=1)
    clique_edges = np.stack([members[uu], members[vv]], axis=1)
    base = g.edge_array().astype(np.int64)
    edges = np.concatenate([base, clique_edges]) if len(base) else clique_edges
    return from_edges(n, edges), np.sort(members)


def barabasi_albert(n: int, m: int, seed=0) -> CSRGraph:
    """Preferential attachment: each new vertex attaches to ``m`` targets.

    Produces the power-law degree profile of the social-network family.
    """
    if m < 1 or m >= n:
        raise GraphConstructionError("need 1 <= m < n")
    rng = _rng(seed)
    targets = list(range(m))
    repeated: list[int] = []
    edges = []
    for v in range(m, n):
        for t in targets:
            edges.append((v, t))
        repeated.extend(targets)
        repeated.extend([v] * m)
        # Sample next targets proportional to degree (with repetition guard).
        targets = []
        seen = set()
        while len(targets) < m:
            t = repeated[rng.integers(len(repeated))]
            if t not in seen:
                seen.add(t)
                targets.append(t)
    return from_edges(n, np.asarray(edges, dtype=np.int64))


def powerlaw_cluster(n: int, m: int, triangle_prob: float, seed=0) -> CSRGraph:
    """Holme–Kim model: preferential attachment plus triangle closure.

    The triangle step raises clustering (and hence clique sizes and
    coreness) above plain BA — matching social graphs where ω ≈ 20-60.
    """
    if m < 1 or m >= n:
        raise GraphConstructionError("need 1 <= m < n")
    draws = _ScalarDraws(_rng(seed))
    random, integers = draws.random, draws.integers
    repeated: list[int] = list(range(m))
    # Each vertex from m on connects to exactly m targets, listed in order.
    targets: list[int] = []
    adjacency: list[list[int]] = [[] for _ in range(n)]

    def connect(u: int, t: int) -> None:
        targets.append(t)
        adjacency[u].append(t)
        adjacency[t].append(u)
        repeated.extend([u, t])

    for v in range(m, n):
        picked: set[int] = set()
        last_target = None
        while len(picked) < m:
            if last_target is not None and random() < triangle_prob:
                # Triangle closure: connect to a random neighbor of the
                # previous target.
                nbrs = [x for x in adjacency[last_target]
                        if x != v and x not in picked]
                if nbrs:
                    t = nbrs[integers(len(nbrs))]
                    picked.add(t)
                    connect(v, t)
                    continue
            t = repeated[integers(len(repeated))]
            if t != v and t not in picked:
                picked.add(t)
                connect(v, t)
                last_target = t
    return from_edges(n, _pairs(np.repeat(np.arange(m, n), m), targets))


def grid_road(rows: int, cols: int, k4_fraction: float = 0.15, seed=0) -> CSRGraph:
    """Road-network analogue: a grid with a fraction of cells fully braced.

    A braced cell (both diagonals added, which with the four grid edges
    forms a K4) gives ω = 4 while the degeneracy stays 3 — the USA/CA road
    profile: tiny degeneracy, clique-core gap zero.
    """
    if rows < 0 or cols < 0:
        raise GraphConstructionError("rows and cols must be >= 0")
    rng = _rng(seed)
    vid = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    # One coin per cell, drawn row-major.
    braced = (rng.random(max(rows - 1, 0) * max(cols - 1, 0))
              < k4_fraction).reshape(max(rows - 1, 0), max(cols - 1, 0))
    edges = np.concatenate([
        _pairs(vid[:, :-1].ravel(), vid[:, 1:].ravel()),
        _pairs(vid[:-1, :].ravel(), vid[1:, :].ravel()),
        _pairs(vid[:-1, :-1][braced], vid[1:, 1:][braced]),
        _pairs(vid[:-1, 1:][braced], vid[1:, :-1][braced]),
    ])
    return from_edges(rows * cols, edges)


def relaxed_caveman(num_cliques: int, clique_size: int, rewire_prob: float,
                    seed=0) -> CSRGraph:
    """Connected caves (cliques) with rewired edges — community structure."""
    draws = _ScalarDraws(_rng(seed))
    n = num_cliques * clique_size
    edges = []
    for c in range(num_cliques):
        base = c * clique_size
        for i in range(clique_size):
            for j in range(i + 1, clique_size):
                u, v = base + i, base + j
                if draws.random() < rewire_prob:
                    w = draws.integers(n)
                    if w != u:
                        v = w
                edges.append((u, v))
    return from_edges(n, np.asarray(edges, dtype=np.int64))


def overlapping_cliques(n: int, num_cliques: int, clique_size_range: tuple[int, int],
                        noise_p: float = 0.0, seed=0) -> CSRGraph:
    """Union of random cliques over a shared vertex set, plus G(n, p) noise.

    The dense-biological analogue: gene co-expression graphs are unions of
    many overlapping near-cliques, producing density up to ~0.5, a large
    maximum clique, and a large clique-core gap (many vertices sit in
    several medium cliques, inflating coreness beyond ω - 1).
    """
    rng = _rng(seed)
    lo, hi = clique_size_range
    parts = []
    for _ in range(num_cliques):
        k = int(rng.integers(lo, hi + 1))
        members = rng.choice(n, size=min(k, n), replace=False)
        uu, vv = np.triu_indices(len(members), k=1)
        parts.append(np.stack([members[uu], members[vv]], axis=1))
    if noise_p > 0:
        noise = gnp_random(n, noise_p, seed=rng.integers(2**31)).edge_array().astype(np.int64)
        if len(noise):
            parts.append(noise)
    edges = np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64)
    return from_edges(n, edges)


def camouflaged_clique(n: int, p: float, clique_size: int, seed=0) -> tuple[CSRGraph, np.ndarray]:
    """Planted clique with degree camouflage (brock-style adversary).

    The DIMACS brock instances famously hide the maximum clique from
    degree-based heuristics by re-balancing degrees: after planting, each
    clique member has some of its *background* edges removed so its total
    degree matches the graph's average.  The hidden clique is then
    invisible to Alg. 5 (its members are not top-K by degree) and to naive
    density heuristics, forcing the systematic machinery to earn its keep.

    Returns ``(graph, clique_vertices)``.
    """
    if clique_size > n:
        raise GraphConstructionError("clique larger than graph")
    rng = _rng(seed)
    base = gnp_random(n, p, seed=rng.integers(2**31))
    members = np.sort(rng.choice(n, size=clique_size, replace=False))
    member_set = set(int(x) for x in members)
    # Planting adds ~clique_size-1 edges per member; remove that many of
    # each member's background edges to camouflage the degree bump.
    edges = [tuple(e) for e in base.edge_array().tolist()]
    by_member: dict[int, list[int]] = {int(v): [] for v in members}
    for idx, (u, v) in enumerate(edges):
        if u in member_set and v not in member_set:
            by_member[u].append(idx)
        elif v in member_set and u not in member_set:
            by_member[v].append(idx)
    drop: set[int] = set()
    target_removals = clique_size - 1
    for v in members:
        candidates = [i for i in by_member[int(v)] if i not in drop]
        rng.shuffle(candidates)
        drop.update(candidates[:target_removals])
    kept = np.asarray([e for i, e in enumerate(edges) if i not in drop],
                      dtype=np.int64).reshape(-1, 2)
    uu, vv = np.triu_indices(clique_size, k=1)
    clique_edges = np.stack([members[uu], members[vv]], axis=1)
    return from_edges(n, np.concatenate([kept, clique_edges])), members


def concentrated_cliques(n: int, region: int, num_cliques: int,
                         clique_size_range: tuple[int, int], seed=0) -> CSRGraph:
    """Overlapping cliques confined to vertices ``0..region-1``.

    Concentrating the overlaps inflates the coreness of a small region far
    above the clique sizes involved — the device behind the LiveJournal and
    warwiki analogues, whose clique-core gap is positive even though a
    dominant planted clique defines ω elsewhere in the graph.
    """
    rng = _rng(seed)
    lo, hi = clique_size_range
    if region > n or region < hi:
        raise GraphConstructionError("region must satisfy hi <= region <= n")
    parts = []
    for _ in range(num_cliques):
        k = int(rng.integers(lo, hi + 1))
        members = rng.choice(region, size=k, replace=False)
        uu, vv = np.triu_indices(k, k=1)
        parts.append(np.stack([members[uu], members[vv]], axis=1))
    edges = np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64)
    return from_edges(n, edges)


def with_periphery(core_graph: CSRGraph, extra: int, attach_prob: float = 0.1,
                   seed=0) -> CSRGraph:
    """Attach a sparse tree periphery of ``extra`` vertices to a core graph.

    Each new vertex connects to one random earlier vertex (tree edge) and,
    with ``attach_prob``, to a second one.  Peripheral vertices have tiny
    coreness (<= 2) and are exactly the *avoidable* part of the graph: the
    paper's inputs are dominated by such vertices (Fig. 1 — under 40% of
    vertices are ``may``), which is the regime where lazy construction
    beats eager relabelling.  Analogue graphs wrap their interesting core
    with this to preserve that asymmetry at laptop scale.
    """
    draws = _ScalarDraws(_rng(seed))
    if extra <= 0:
        return core_graph
    random, integers = draws.random, draws.integers
    n0 = core_graph.n
    n = n0 + extra
    src: list[int] = []
    dst: list[int] = []
    for v in range(n0, n):
        src.append(integers(v))
        dst.append(v)
        if random() < attach_prob:
            src.append(integers(v))
            dst.append(v)
    base = core_graph.edge_array().astype(np.int64)
    arr = _pairs(src, dst)
    all_edges = np.concatenate([base, arr]) if len(base) else arr
    return from_edges(n, all_edges)


def social_network(n: int, attach: int, triangle_prob: float, noise_p: float,
                   clique_size: int, seed=0) -> CSRGraph:
    """Hard social-network analogue: hubs + coreness inflation + hidden clique.

    Three layers reproduce the Table I social-graph profile (large
    clique-core gap, heuristics undershooting ω, systematic search doing
    real work):

    * a Holme–Kim power-law backbone supplies hubs, which mislead the
      degree-based heuristic (its top-K seeds sit on hubs, not cliques);
    * a G(n, p) overlay inflates coreness well beyond ω - 1, creating a
      dense-but-cliqueless top core that also misleads the coreness-based
      heuristic and opens a wide clique-core gap;
    * a clique planted on random (typically low-degree) vertices defines ω.

    ``clique_size`` must stay below the overlay's degeneracy + 1 for the
    gap to be positive; the registry's parameterizations guarantee it.
    """
    base = powerlaw_cluster(n, attach, triangle_prob, seed=seed)
    noise = gnp_random(n, noise_p, seed=(seed or 0) + 1)
    g = add_edges(base, noise.edge_array())
    planted, _ = planted_clique(n, 0.0, clique_size, seed=(seed or 0) + 2)
    return add_edges(g, planted.edge_array())


def bipartite_random(n_left: int, n_right: int, p: float, seed=0) -> CSRGraph:
    """Random bipartite graph: ω = 2 while degeneracy can be large.

    The yahoo-member profile (Table I: ω = 2, d = 49): a graph the
    coreness bound is maximally wrong about.
    """
    rng = _rng(seed)
    mask = rng.random((n_left, n_right)) < p
    u, v = np.nonzero(mask)
    edges = np.stack([u, v + n_left], axis=1)
    return from_edges(n_left + n_right, edges)


def hierarchical_web(levels: int, branching: int, core_clique: int, seed=0) -> CSRGraph:
    """Web-crawl analogue: a large clique core with a sparse tree periphery.

    The core clique dominates both ω and the degeneracy, giving gap zero
    (uk-union / dimacs / hollywood profile); the periphery mimics the long
    crawl tail whose vertices must all be *skipped* cheaply.
    """
    draws = _ScalarDraws(_rng(seed))
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
                # Occasional cross edge for realism.
                if draws.random() < 0.3 and next_id > core_clique:
                    other = core_clique + draws.integers(next_id - core_clique)
                    edges.append((other, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
        if len(frontier) > 4000:  # cap growth
            break
    return from_edges(next_id, np.asarray(edges, dtype=np.int64))


def citation_layers(n: int, out_degree: int, recency_bias: float = 2.0, seed=0) -> CSRGraph:
    """Citation-network analogue (patents): vertices cite earlier vertices
    with a recency-biased preference; moderate coreness, small cliques."""
    rng = _rng(seed)
    # Vertex v draws min(out_degree, v) uniforms, in vertex order; a
    # repeated pick collapses in from_edges.
    citing = np.arange(1, max(n, 1), dtype=np.int64)
    citing = np.repeat(citing, np.minimum(out_degree, citing))
    # Bias toward recent vertices: sample v * u^(1/bias).
    cited = (citing * rng.random(len(citing)) ** recency_bias).astype(np.int64)
    return from_edges(n, _pairs(citing, cited))


def star_forest_plus(n_hubs: int, leaves_per_hub: int, extra_p: float, seed=0) -> CSRGraph:
    """Hub-and-spoke graph with light G(n,p) noise — wiki-talk profile:
    huge maximum degree, small maximum clique."""
    if n_hubs < 0 or leaves_per_hub < 0:
        raise GraphConstructionError("n_hubs and leaves_per_hub must be >= 0")
    rng = _rng(seed)
    n = n_hubs * (1 + leaves_per_hub)
    spokes = _pairs(np.repeat(np.arange(n_hubs), leaves_per_hub),
                    np.arange(n_hubs, n))
    # One coin per hub pair (h1 < h2), drawn row-major, then the noise seed.
    h1, h2 = np.triu_indices(n_hubs, k=1)
    linked = rng.random(len(h1)) < 0.5
    noise = gnp_random(n, extra_p, seed=rng.integers(2**31)).edge_array().astype(np.int64)
    return from_edges(n, np.concatenate([spokes, _pairs(h1[linked], h2[linked]),
                                         noise]))
