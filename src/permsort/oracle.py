"""Exhaustive reference answers for small instances.

Two brute forces live here. ``mcd_exact`` runs Dijkstra over the Cayley
graph of S_n with transpositions as edges, so it returns the true
minimum-cost sorting of any permutation, no structural assumptions at all.
The graph is never built: a permutation's neighbours are generated when it
is popped, and the search stops at the identity, so it expands only the
permutations cheaper than the target.
``mld_exact_enumeration`` checks the single-cycle decomposer a different
way: every labeled tree on k vertices, filtered down to the non-crossing
ones, each scored by its edge sum.

Both explode factorially, which is the point; the limit guards keep them
from being called on sizes where "exact" means "never returns". Everything
here is for tests and the CLI oracle command, not for production sorting.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as _product

from .costs import INF, CostMatrix, Number
from .errors import SizeLimitError
from .mld import tree_decomposition
from .permutation import Cycle, Decomposition, Permutation, Transposition

DEFAULT_LIMIT = 7
TREE_LIMIT = 8


@dataclass(frozen=True)
class CayleySearchResult:
    target: Permutation
    min_cost: Number
    witness: Decomposition | None


@dataclass(frozen=True)
class TreeEnumeration:
    cycle: Cycle
    min_cost: Number
    witness: Decomposition | None
    tree_count: int
    noncrossing_count: int
    min_cost_any_tree: Number


def _check_limit(n: int, limit: int):
    if n > limit:
        raise SizeLimitError(
            f"n={n} exceeds the exhaustive-search limit {limit}; "
            "raise the limit explicitly if you really want this"
        )


def mcd_exact(p: Permutation, costs: CostMatrix, limit: int = DEFAULT_LIMIT) -> CayleySearchResult:
    """True minimum-cost sorting by shortest path through S_n.

    Dijkstra from p over image tuples, expanding neighbours on demand and
    stopping when the identity pops: only permutations cheaper than the
    target are expanded. The witness multiplies back to p and its cost is
    exactly ``min_cost``. Unreachable targets (infinite costs can disconnect
    the graph) come back with cost inf and no witness.
    """
    n = p.n
    if costs.n != n:
        raise ValueError(f"cost table is for n={costs.n}, permutation has n={n}")
    _check_limit(n, limit)
    # finite swaps in lexicographic pair order: the scan order of every pop
    swaps = [(a, b, w) for a, b, w in costs.entries() if w != INF]

    target = tuple(range(1, n + 1))
    start = p.images
    dist: dict[tuple[int, ...], Number] = {start: 0}
    prev: dict[tuple[int, ...], tuple[tuple[int, ...], int, int]] = {}
    # image tuples compare lexicographically, so equal distances pop in
    # lexicographic order of the permutations
    heap: list[tuple[Number, tuple[int, ...]]] = [(0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == target:
            break
        where = {v: i for i, v in enumerate(u)}
        for a, b, w in swaps:
            images = list(u)
            images[where[a]], images[where[b]] = b, a
            v = tuple(images)
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                prev[v] = (u, a, b)
                heapq.heappush(heap, (nd, v))

    if target not in dist:
        return CayleySearchResult(p, INF, None)
    labels: list[Transposition] = []
    at = target
    while at != start:
        at, a, b = prev[at]
        labels.append(Transposition(a, b))
    labels.reverse()
    witness = Decomposition(tuple(labels))
    assert witness.product(n) == p
    return CayleySearchResult(p, dist[target], witness)


def _decode_prufer(seq: tuple[int, ...], k: int) -> tuple[tuple[int, int], ...]:
    degree = [1] * (k + 1)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, k + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v) if u < v else (v, u))
    return tuple(edges)


def _noncrossing(edges: tuple[tuple[int, int], ...]) -> bool:
    for i, (a1, b1) in enumerate(edges):
        for a2, b2 in edges[i + 1:]:
            if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                return False
    return True


@lru_cache(maxsize=None)
def _trees_with_flags(k: int):
    """Every labeled tree on vertices 1..k, tagged non-crossing or not."""
    if k == 1:
        return ((tuple(), True),)
    if k == 2:
        return ((((1, 2),), True),)
    out = []
    for seq in _product(range(1, k + 1), repeat=k - 2):
        edges = _decode_prufer(seq, k)
        out.append((edges, _noncrossing(edges)))
    return tuple(out)


def mld_exact_enumeration(cycle: Cycle, phi_star: CostMatrix,
                          limit: int = TREE_LIMIT) -> TreeEnumeration:
    """Minimum decomposition cost of one cycle by scoring every spanning tree.

    Positions 1..k stand for the cycle's elements in order; a tree's cost is
    the sum of its edges' optimized costs. Non-crossing trees correspond to
    valid decompositions, and the returned witness converts the best one.
    The minimum over all trees, crossing included, is reported alongside as
    a sanity floor.
    """
    k = cycle.k
    _check_limit(k, limit)
    labels = cycle.elements
    if k == 1:
        return TreeEnumeration(cycle, 0, Decomposition(), 1, 1, 0)

    def tree_cost(edges: tuple[tuple[int, int], ...]) -> Number:
        total: Number = 0
        for u, v in edges:
            w = phi_star.cost(labels[u - 1], labels[v - 1])
            if w == INF:
                return INF
            total += w
        return total

    best: Number = INF
    best_edges = None
    best_any: Number = INF
    trees = _trees_with_flags(k)
    nc_count = 0
    for edges, flag in trees:
        c = tree_cost(edges)
        if c < best_any:
            best_any = c
        if flag:
            nc_count += 1
            if c < best:
                best = c
                best_edges = edges
    witness = None
    if best_edges is not None and best != INF:
        label_edges = [(labels[u - 1], labels[v - 1]) for u, v in best_edges]
        witness = tree_decomposition(cycle, label_edges)
    return TreeEnumeration(cycle, best, witness, len(trees), nc_count, best_any)
