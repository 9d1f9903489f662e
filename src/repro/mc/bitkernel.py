"""BBMC-style bit-parallel branch and bound (related work §VI).

The same MCQ search as :mod:`repro.mc.branch_bound` — Tomita color bound,
reverse color order, degeneracy root order, incumbent pruning — but with
every set operation word-parallel, the encoding San Segundo's bitboard
solvers and Prosser's computational study found fastest on exactly the
dense candidate subgraphs the filter funnel emits:

* the candidate set is a bit vector, so ``new_candidates = cand & adj[v]``
  is one AND over ``ceil(n/64)`` words instead of ``|cand|`` membership
  probes;
* color classes are built by repeated ``q &= ~adj[v]`` — NUMBER-SORT with
  one word-vector op per placed vertex (class-by-class greedy first-fit
  assigns exactly the same colors as the sets backend's vertex-by-vertex
  first-fit, so the color bound is identically tight);
* degeneracy ordering is applied once, up front, as a *bit relabelling*:
  vertex ids inside the kernel are ranks in the peel order, so ascending
  bit order inside any candidate word vector **is** degeneracy order and
  the search never re-sorts.

Work accounting is word-granular: the kernel charges
``Counters.words_scanned`` per row-width vector op, the bit analogue of
the sets backend's per-element ``elements_scanned``.  The two backends
therefore report different (but each internally consistent) work totals —
see docs/performance.md for the counter semantics.

The solve contract mirrors :class:`~repro.mc.branch_bound.MCSubgraphSolver`
except for the input: ``solve(masks, lower_bound)`` takes the local-id
adjacency as one Python-int row mask per vertex — the masks
``NeighborSearch`` extracts and the k-VC arm also works on — returns a
clique strictly larger than the bound or ``None`` (a proof), and honors
``WorkBudget`` ticks at every branch node.  At subgraph scale (tens of
64-bit words) CPython's big-int bitwise ops run a whole row in one C call.

LazyMC's solve path does not run this kernel: ``bench micro`` races it
against the k-VC and sets MC arms on recorded sub-solver traffic.
"""

from __future__ import annotations

from ..instrument import Counters, WorkBudget
from ..vc.kernelization import mask_ids
from .branch_bound import peel_order


class BitMCSubgraphSolver:
    """Bit-parallel drop-in for :class:`~repro.mc.branch_bound.MCSubgraphSolver`."""

    def __init__(self, counters: Counters | None = None,
                 budget: WorkBudget | None = None):
        self.counters = counters if counters is not None else Counters()
        self.budget = budget
        self._rows: list[int] = []
        self._neg_rows: list[int] = []
        self._wpr = 0
        self._best: list[int] = []
        self._best_size = 0

    def solve(self, masks: list[int],
              lower_bound: int = 0) -> list[int] | None:
        """Find a clique strictly larger than ``lower_bound`` in ``masks``.

        Bit u of ``masks[v]`` is set iff u and v are adjacent.  Returns
        local ids (or ``None`` as an exactness proof), identical in meaning
        to the sets backend's return value.
        """
        n = len(masks)
        if n == 0:
            return None
        counters = self.counters
        self._wpr = max((n + 63) // 64, 1)

        # Degeneracy relabelling: kernel id i is the vertex at rank i of
        # the peel order, so bit order == root branching order.
        order = peel_order(
            [r.bit_count() for r in masks],
            lambda v: mask_ids(masks[v]))
        rank = [0] * n
        for i, v in enumerate(order):
            rank[v] = i
        rows = [0] * n
        for v in range(n):
            row = 0
            for u in mask_ids(masks[v]):
                row |= 1 << rank[u]
            rows[rank[v]] = row
        counters.words_scanned += n * self._wpr  # one packed pass per row
        self._rows = rows
        # Complement rows, precomputed once: the coloring inner loop masks
        # out neighbors with `q &= ~adj[v]` at every placement, and Python
        # big-int negation is a full word-vector pass better paid up front.
        self._neg_rows = [~r for r in rows]

        self._best = []
        self._best_size = lower_bound
        self._expand([], (1 << n) - 1)
        return [order[i] for i in self._best] if self._best else None

    # -- internals ---------------------------------------------------------------

    def _color_sort(self, cand: int, kmin: int) -> tuple[list[int], list[int]]:
        """NUMBER-SORT on a candidate bit vector.

        Color classes are carved greedily: class ``c`` repeatedly takes
        the lowest remaining candidate and masks out its neighbors
        (``q &= ~adj[v]``), one word-vector op per placement.  Returns
        ``(ordered, colors)`` with colors non-decreasing, the contract of
        :func:`repro.mc.coloring.color_sort` — except that vertices whose
        color is <= ``kmin`` are *omitted* (BBMC's pruned-first-classes
        refinement): the caller's bound check would never branch them, so
        recording them only to skip them is wasted list traffic.  They
        stay in the candidate bit vector, which is what deeper nodes see.
        """
        counters = self.counters
        neg_rows = self._neg_rows
        ordered: list[int] = []
        colors: list[int] = []
        push_v = ordered.append
        push_c = colors.append
        rem = cand
        color = 0
        placed = 0
        while rem:
            color += 1
            q = rem
            if color > kmin:
                while q:
                    b = q & -q
                    v = b.bit_length() - 1
                    q = (q ^ b) & neg_rows[v]
                    rem ^= b
                    push_v(v)
                    push_c(color)
                    placed += 1
            else:
                while q:
                    b = q & -q
                    q = (q ^ b) & neg_rows[b.bit_length() - 1]
                    rem ^= b
                    placed += 1
        counters.words_scanned += placed * self._wpr
        counters.colorings += 1
        return ordered, colors

    def _expand(self, clique: list[int], cand: int) -> None:
        counters = self.counters
        counters.branch_nodes += 1
        if self.budget is not None:
            self.budget.check()
        base = len(clique)
        # Popcount pre-bound: |cand| caps the color count, so when even
        # |C| + |cand| cannot beat the incumbent the color sort would
        # return without branching anyway — prune for one popcount.
        if base + cand.bit_count() <= self._best_size:
            counters.words_scanned += self._wpr
            return
        rows = self._rows
        ordered, colors = self._color_sort(cand, self._best_size - base)
        branched = 0
        try:
            for i in range(len(ordered) - 1, -1, -1):
                if base + colors[i] <= self._best_size:
                    return
                v = ordered[i]
                branched += 1
                cand &= ~(1 << v)
                new_cand = cand & rows[v]
                if new_cand:
                    clique.append(v)
                    self._expand(clique, new_cand)
                    clique.pop()
                elif base + 1 > self._best_size:
                    self._best = clique + [v]
                    self._best_size = base + 1
                    counters.incumbent_updates += 1
        finally:
            counters.words_scanned += branched * self._wpr

