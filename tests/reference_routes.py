"""Straightforward routes kept as test oracles for the optimized ones.

Each function here computes what a production routine computes, the way
the paper states it and without the production shortcuts, so properties
can require equal results:

- ``mld_table_quartic``: the interval DP evaluated as written, O(k^4);
- ``merge_cycles_rescan``: the cycle merge that rescans every pair on
  every join for the cheapest one linking two separate cycles;
- ``product_by_fold``: a transposition product as a left fold of
  ``apply_transposition``.
"""
from permsort import (
    INF,
    CostMatrix,
    Cycle,
    Decomposition,
    Permutation,
    Transposition,
    apply_transposition,
    nontrivial_cycles,
)
from permsort.costs import Number
from permsort.mld import Edge, MldTable


def mld_table_quartic(cycle: Cycle, costs: CostMatrix) -> MldTable:
    """Fill the interval table directly. Ties pick the smallest r, then smallest s."""
    labels = cycle.elements
    k = len(labels)
    c: list[list[Number]] = [[0] * (k + 1) for _ in range(k + 1)]
    split: list[list[Edge | None]] = [[None] * (k + 1) for _ in range(k + 1)]
    for i in range(1, k):
        c[i][i + 1] = costs.cost(labels[i - 1], labels[i])
    for span in range(2, k):
        for i in range(1, k - span + 1):
            j = i + span
            best: Number = INF
            best_split: Edge | None = None
            for r in range(i + 1, j + 1):
                edge = costs.cost(labels[i - 1], labels[r - 1])
                if edge == INF:
                    continue
                for s in range(i, r):
                    total = c[i][s] + c[s + 1][r] + c[r][j] + edge
                    if total < best:
                        best = total
                        best_split = (s, r)
            c[i][j] = best
            split[i][j] = best_split
    return MldTable(cycle, tuple(tuple(row) for row in c), tuple(tuple(row) for row in split))


def merge_cycles_rescan(p: Permutation, phi_star: CostMatrix) -> tuple[Decomposition, Cycle]:
    """Greedy merge: on every join, rescan all pairs for the cheapest link.

    Ties go to the smaller pair. Returns tau' (written order) and the merged
    cycle, as ``merge_cycles`` does without explicit joins.
    """
    moved = nontrivial_cycles(p)
    comp: dict[int, int] = {}
    for idx, c in enumerate(moved):
        for e in c.elements:
            comp[e] = idx
    support = sorted(comp)
    applied: list[Transposition] = []
    current = p
    for _ in range(len(moved) - 1):
        best = None
        for i, a in enumerate(support):
            for b in support[i + 1:]:
                if comp[a] == comp[b]:
                    continue
                key = (phi_star.cost(a, b), a, b)
                if best is None or key < best:
                    best = key
        _, a, b = best
        old, new = comp[b], comp[a]
        for e in support:
            if comp[e] == old:
                comp[e] = new
        applied.append(Transposition(a, b))
        current = apply_transposition(current, Transposition(a, b))
    return Decomposition(tuple(reversed(applied))), nontrivial_cycles(current)[0]


def product_by_fold(d: Decomposition, n: int) -> Permutation:
    """Multiply out d one transposition at a time, rightmost first."""
    p = Permutation.identity(n)
    for t in reversed(d.transpositions):
        p = apply_transposition(p, t)
    return p
