"""may/must zone-of-interest characterization (§III-A, Fig. 1).

After the maximum clique size ``w`` is known, the paper classifies:

* **must** vertices — coreness strictly greater than ``w - 1``; these must
  be inspected to *prove* no larger clique exists.
* **may** vertices — coreness at least ``w - 1``; only these can possibly
  appear in a clique of size ``w`` or larger.
* **attached** edges — edges with at least one endpoint in the may set;
  neighbors outside the may set that an unfiltered representation would
  still store.

Figure 1 plots the vertex/edge fractions of these sets, motivating the
lazy filtered representation.  :func:`may_must_report` computes them all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph
from .kcore import coreness
from .subgraph import edges_within


@dataclass(frozen=True)
class MayMustReport:
    """Fractions of the graph inside the zone of interest (Fig. 1)."""

    n: int
    m: int
    omega: int
    degeneracy: int
    gap: int
    must_vertices: int
    may_vertices: int
    must_edges: int
    may_edges: int
    attached_edges: int

    @property
    def must_vertex_fraction(self) -> float:
        return self.must_vertices / self.n if self.n else 0.0

    @property
    def may_vertex_fraction(self) -> float:
        return self.may_vertices / self.n if self.n else 0.0

    @property
    def must_edge_fraction(self) -> float:
        return self.must_edges / self.m if self.m else 0.0

    @property
    def may_edge_fraction(self) -> float:
        return self.may_edges / self.m if self.m else 0.0

    @property
    def attached_edge_fraction(self) -> float:
        return self.attached_edges / self.m if self.m else 0.0


def may_must_report(graph: CSRGraph, omega: int,
                    core: np.ndarray | None = None) -> MayMustReport:
    """Compute the Fig. 1 characterization for a solved graph.

    ``core`` may be passed to reuse an existing coreness decomposition.
    """
    if core is None:
        core = coreness(graph)
    d = int(core.max()) if graph.n else 0
    must_mask = core > omega - 1
    may_mask = core >= omega - 1
    must_vertices = np.flatnonzero(must_mask)
    may_vertices = np.flatnonzero(may_mask)

    must_edges = edges_within(graph, must_vertices) if len(must_vertices) else 0
    may_edges = edges_within(graph, may_vertices) if len(may_vertices) else 0

    # Attached edges: at least one endpoint in the may set.
    attached = 0
    for v in may_vertices:
        attached += graph.degree(int(v))
    # Edges with both endpoints inside were counted twice.
    attached = attached - may_edges

    return MayMustReport(
        n=graph.n, m=graph.m, omega=omega, degeneracy=d,
        gap=d + 1 - omega,
        must_vertices=len(must_vertices), may_vertices=len(may_vertices),
        must_edges=must_edges, may_edges=may_edges, attached_edges=attached,
    )
