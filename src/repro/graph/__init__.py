"""Graph substrate: CSR storage, construction, I/O, generators and analyses.

This subpackage is the foundation every solver in the reproduction builds
on.  Graphs are simple (no self-loops, no parallel edges) and undirected,
stored in compressed sparse row (CSR) form with sorted neighbor lists so
that neighborhoods are zero-copy numpy views and edge queries are binary
searches.
"""

from .csr import CSRGraph
from .builders import from_edges, from_adjacency, empty_graph, complete_graph
from .kcore import coreness, peeling_order
from .ordering import coreness_degree_order, VertexOrder, relabel_graph
from .complement import complement, complement_masks
from .subgraph import induced_masks
from .analysis import may_must_report, MayMustReport
from .fingerprint import fingerprint
from .metrics import GraphProfile, profile, triangle_count, global_clustering

__all__ = [
    "CSRGraph",
    "from_edges",
    "from_adjacency",
    "empty_graph",
    "complete_graph",
    "coreness",
    "peeling_order",
    "coreness_degree_order",
    "VertexOrder",
    "relabel_graph",
    "complement",
    "complement_masks",
    "induced_masks",
    "may_must_report",
    "MayMustReport",
    "fingerprint",
    "GraphProfile",
    "profile",
    "triangle_count",
    "global_clustering",
]
