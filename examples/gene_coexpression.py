#!/usr/bin/env python
"""Maximum clique in a dense gene co-expression network — algorithmic choice.

Biological correlation networks (the paper's bio-mouse-gene /
bio-human-gene inputs) are small but extremely dense: unions of
overlapping near-cliques.  Candidate subgraphs here routinely exceed 50%
density, which is where LazyMC switches from direct MC branch-and-bound to
k-vertex-cover on the sparse complement (§IV-E).  This example sweeps the
density threshold phi and shows the choice in action.

Run:  python examples/gene_coexpression.py
"""

from repro import LazyMCConfig, lazymc
from repro.graph.generators import overlapping_cliques


def main() -> None:
    # 150 genes, 45 overlapping co-expression modules of 12-30 genes.
    graph = overlapping_cliques(150, 45, (12, 30), noise_p=0.04, seed=63)
    print(f"network: {graph.n} genes, {graph.m} co-expression edges, "
          f"density {graph.density:.2f}")

    base = lazymc(graph)
    print(f"\nlargest co-expressed module: {base.omega} genes "
          f"(degeneracy {base.degeneracy}, clique-core gap {base.gap})")

    # Where did sub-solver work land, by candidate-subgraph density decile?
    print("\nsub-solver work by density bucket (default phi = 0.5):")
    for bucket in sorted(base.funnel.density_work):
        lo = bucket * 10
        print(f"  {lo:3d}-{lo+10:3d}% density: "
              f"{base.funnel.density_work[bucket]:>9d} operations")

    # Sweep the algorithmic-choice threshold (Fig. 6).
    print("\nphi sweep — total work per threshold:")
    for phi in (0.1, 0.3, 0.5, 0.7, 0.9):
        r = lazymc(graph, LazyMCConfig(density_threshold=phi))
        assert r.omega == base.omega  # choice never changes the answer
        print(f"  phi = {phi:.1f}: work = {r.counters.work:>9d} "
              f"(mc = {r.funnel.searched_mc:3d} / kvc = {r.funnel.searched_kvc:3d} "
              f"neighborhoods)")
    r = lazymc(graph, LazyMCConfig(use_kvc=False))
    print(f"  MC only : work = {r.counters.work:>9d}")


if __name__ == "__main__":
    main()
