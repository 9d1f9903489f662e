"""The benchmark's workloads: which graphs, how they are built, which config.

The ``registry-*`` graphs are the fixed analogues of ``repro.datasets``,
solved in registry order whatever the seed.  The ``dimacs-synth`` graphs
are fixed draws whose vertices the seed relabels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines.reference import networkx_max_clique
from repro.core.config import LazyMCConfig
from repro.datasets import registry
from repro.graph import generators
from repro.graph.builders import from_edges
from repro.graph.csr import CSRGraph

Graphs = list[tuple[str, CSRGraph]]


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the solver config they run under."""

    name: str
    config: LazyMCConfig
    #: ``build(seed)`` returns the named graphs of one pass, in solve order.
    build: Callable[[int], Graphs]
    #: ``oracle(name, graph)`` returns the exact clique number.
    oracle: Callable[[str, CSRGraph], int]

    @property
    def deterministic(self) -> bool:
        """Counters repeat exactly unless real worker processes race."""
        return self.config.engine != "process"


def _registry(names: list[str]) -> Callable[[int], Graphs]:
    def build(seed: int) -> Graphs:
        return [(name, registry.spec(name).build()) for name in names]
    return build


def _registry_oracle(name: str, graph: CSRGraph) -> int:
    return registry.EXPECTED_OMEGA[name]


#: ``(generator, n, p, planted clique size)``.  p <= 0.4 reaches the
#: direct MC arm.  The p = 0.7 member is large enough that its searched
#: neighborhoods pass ``bits_min_size`` (64), so it is where the k-VC arm
#: loses to the bit kernel that ``kernel_backend="auto"`` would pick; at
#: n = 100 no neighborhood reaches that size.  It takes most of a pass,
#: so the other members are kept small enough for three passes a run.
DIMACS_FAMILIES = (
    ("gnp", 200, 0.2, None),
    ("gnp", 150, 0.3, None),
    ("gnp", 100, 0.5, None),
    ("gnp", 120, 0.7, None),
    ("camouflaged", 120, 0.4, 12),
    ("camouflaged", 110, 0.5, 14),
)


#: Seeds the generator seeds of the draws.  Two draws of G(120, 0.7) differ
#: by up to 25% in work (2.5M to 3.1M units over eight draws), which would
#: swamp the run-to-run spread of the workload, so the draws are fixed and
#: the benchmark seed only permutes their vertex ids: each seed gives
#: another input of the same structure.  Some draws still split into two
#: work modes 15% apart over relabellings (the search meets a maximum
#: clique sooner on some orders); this draw's G(120, 0.7) stays within
#: 2.88M-2.94M units over seeds 101-108.
DRAW_SEED = 3


def _dimacs(seed: int) -> Graphs:
    draws = random.Random(DRAW_SEED)
    relabel = np.random.default_rng(seed)
    graphs = []
    for kind, n, p, clique in DIMACS_FAMILIES:
        graph_seed = draws.randrange(2 ** 31)
        if kind == "gnp":
            graph = generators.gnp_random(n, p, seed=graph_seed)
        else:
            graph, _ = generators.camouflaged_clique(n, p, clique,
                                                     seed=graph_seed)
        perm = relabel.permutation(n)
        graphs.append((f"{kind}-n{n}-p{p}",
                       from_edges(n, perm[graph.edge_array()])))
    return graphs


def _networkx_oracle(name: str, graph: CSRGraph) -> int:
    return networkx_max_clique(graph).omega


_BIO = [n for n, spec in registry.REGISTRY.items() if spec.family == "bio"]
_NON_BIO = [n for n, spec in registry.REGISTRY.items() if spec.family != "bio"]

WORKLOADS = {w.name: w for w in (
    Workload("registry-sparse", LazyMCConfig(), _registry(_NON_BIO),
             _registry_oracle),
    Workload("registry-dense", LazyMCConfig(), _registry(_BIO),
             _registry_oracle),
    Workload("registry-dense-process",
             LazyMCConfig(engine="process", processes=2), _registry(_BIO),
             _registry_oracle),
    Workload("dimacs-synth", LazyMCConfig(), _dimacs, _networkx_oracle),
)}
