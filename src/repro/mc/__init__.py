"""Subgraph maximum-clique solver (§IV-E).

The paper's MC sub-solver is "derived from the Bron-Kerbosch algorithm ...
uses Tomita's pivoting technique ... vertices sorted by degeneracy order ...
pruning by comparison to the incumbent clique size [and] a coloring-based
pruning rule".  That combination is the classic MCQ/MCS family; this package
implements it over small set-adjacency subgraphs: ``solve(adj,
lower_bound)`` takes ``list[set]`` local-id adjacency.
:mod:`~repro.mc.bitkernel` is the same search in BBMC bit-parallel form
(related work §VI), kept off LazyMC's solve path as a subject of
``bench micro``'s sub-solver arm race; its ``solve(masks, lower_bound)``
reads the candidate subgraph's bitmasks.
"""

from .coloring import color_sort
from .branch_bound import MCSubgraphSolver, peel_order
from .bitkernel import BitMCSubgraphSolver
from .bronkerbosch import bron_kerbosch_pivot, enumerate_maximal_cliques

__all__ = [
    "color_sort",
    "MCSubgraphSolver",
    "peel_order",
    "BitMCSubgraphSolver",
    "bron_kerbosch_pivot",
    "enumerate_maximal_cliques",
]
