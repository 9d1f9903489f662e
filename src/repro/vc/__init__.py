"""k-vertex-cover solver and the clique-via-vertex-cover reduction (§IV-E).

High-density candidate subgraphs are solved through the k-VC problem on
their sparse complement: a clique of size s in G[N] is an independent set of
size s in the complement, i.e. a vertex cover of size |N| - s.  The solver
is a branch-and-bound on the highest-degree vertex with the Buss kernel and
degree-0/1/2 kernelization rules (non-folding cases only, as in the paper),
falling back to a polynomial algorithm once the maximum degree drops to 2.
This mirrors the solver used by dOmega (Walteros & Buchanan).  A greedy
clique-cover lower bound prunes the search, which runs on int bitmasks:
the complement's masks are built once per neighbourhood and read by every
probe.
"""

from .kernelization import kernelize_masks
from .paths_cycles import vc_paths_and_cycles
from .branch_bound import decide_kvc_masks
from .clique_via_vc import max_clique_via_vc_masks

__all__ = [
    "kernelize_masks",
    "vc_paths_and_cycles",
    "decide_kvc_masks",
    "max_clique_via_vc_masks",
]
