"""Replacing expensive swaps by cheap swap chains.

A single transposition (a b) can be simulated by conjugation: if t shares a
label with (a b), then (a b) = t (a' b') t where (a' b') is the third pair
over the union of labels. Repeating the trick along a path c0, ..., cm+1
from a to b gives a palindromic product that uses every path edge twice
except one, so the achievable cost of a path p is

    swap_path_cost(p) = 2 * cost(p) - max edge of p,

and the optimized cost phi*(a, b) is the minimum of that over all a-b paths.
Charging the once-used edge (u, v) separately turns the minimum into

    phi*(a, b) = min over edges (u, v) of 2 D(a, u) + w(u, v) + 2 D(v, b)

with D the ordinary shortest-path distance: a walk that is not simple never
beats a simple path, so the walks this formula admits change nothing.

The production route is ``shortest_swaps``: one Floyd-Warshall pass for D
with next hops, then two min-plus passes for phi* by value only, O(n^3) in
total. The tables are symmetric, so the pass relaxes each unordered pair
once and mirrors the distance and the next hop; its D and next hops equal
those of the loop over every ordered pair, entry for entry. A table that
already satisfies the triangle inequality, such as a path metric or integer
points under L1, skips the loop: a check that adds the loop's own operands
in its order finds that no relaxation would succeed, and the table is its
own D. The same object serves the lower bounds (which read D) and the
expansion of an optimized swap back into raw swaps (a palindrome along the
argmin route, at most 2n - 3 swaps); the argmin edge (u, v) is found per
route, in O(n), when an expansion asks for it. ``all_pairs_optimize`` is
its table.
"""
from __future__ import annotations

from functools import cached_property
from itertools import compress, repeat
from operator import add, lt
from typing import Sequence

from .costs import INF, CostMatrix, Number, _freeze, _fresh
from .errors import ContractError, InfeasibleError
from .permutation import Cycle, Decomposition, Transposition, validate_decomposition


class ShortestSwaps:
    """All-pairs shortest paths of a raw table and its optimized swap costs.

    ``dist[i][j]`` is the cheapest ordinary path cost between labels i+1 and
    j+1 (0-based rows, the convention of ``CostMatrix.table``); ``hop[i][j]``
    is the next vertex on one such path, None when j is unreachable. Both
    come from ``shortest_swaps``. ``optimized`` (phi*) is computed on first
    use, so callers that only need distances never pay for it; ``route``
    finds the argmin edge behind one entry when it is asked for that entry.
    """

    def __init__(self, raw: CostMatrix, dist: list[list[Number]], hop: list[list[int | None]]):
        self.raw = raw
        self.dist = dist
        self.hop = hop

    @cached_property
    def _swap_tables(self) -> tuple[CostMatrix, list[list[Number]], list[list[Number]], list[list[Number]]]:
        """phi*, and the tables left, twice and edges that ``route`` reads.

        left[a][v] = min over u of 2 D(a, u) + w(u, v), and
        phi*(a, b) = min over v of left[a][v] + 2 D(v, b), by value only.
        W and D are symmetric, so a row stands in for each column.
        """
        n = self.raw.n
        twice = [[2 * d for d in row] for row in self.dist]
        edges = [list(row) for row in self.raw.table]
        for i in range(n):
            edges[i][i] = INF    # the zero diagonal is not an edge
        left = [[min(map(add, row, e)) for e in edges] for row in twice]
        rows = _fresh(n, INF)
        for a in range(n):
            # the upper triangle is kept and mirrored, so float rounding
            # cannot make the table asymmetric
            for b in range(a + 1, n):
                rows[a][b] = rows[b][a] = min(map(add, left[a], twice[b]))
        return _freeze(rows, "optimized"), left, twice, edges

    @property
    def optimized(self) -> CostMatrix:
        return self._swap_tables[0]

    def path(self, a: int, b: int) -> list[int]:
        """Labels of a cheapest ordinary path from a to b, both ends included."""
        i, j = a - 1, b - 1
        if self.dist[i][j] == INF:
            raise InfeasibleError(f"vertex {b} is unreachable from {a}")
        out = [a]
        while i != j:
            if len(out) > self.raw.n:
                raise ContractError(f"next-hop chain from {a} to {b} does not end")
            i = self.hop[i][j]
            out.append(i + 1)
        return out

    def route(self, a: int, b: int) -> list[int]:
        """Simple path from a to b whose swap path cost is phi*(a, b).

        The edge (u, v) is found in O(n) from the sums the fill took minima
        of: v is the first index attaining min over v of left[a][v] + 2 D(v, b),
        u the first attaining left[a][v]. The walk a -> u, (u v), v -> b may
        revisit a vertex; every loop is cut out, which cannot raise the swap
        path cost.
        """
        if a == b:
            raise ValueError("need two distinct labels")
        i, j = a - 1, b - 1
        optimized, left, twice, edges = self._swap_tables
        if optimized.table[i][j] == INF:
            raise InfeasibleError(f"pair ({a}, {b}) has no finite-cost realisation")
        via = list(map(add, left[i], twice[j]))
        v = via.index(min(via))    # ties: the first met, as min() keeps it
        once = list(map(add, twice[i], edges[v]))
        u = once.index(min(once))
        simple: list[int] = []
        for x in self.path(a, u + 1) + self.path(v + 1, b):
            if x in simple:
                del simple[simple.index(x) + 1:]
            else:
                simple.append(x)
        return simple


def shortest_swaps(raw: CostMatrix) -> ShortestSwaps:
    """Floyd-Warshall with next hops: the all-pairs engine behind phi*, the
    lower bounds and expansion.

    The table is symmetric, so each step relaxes one triangle, j > i, and
    writes an improvement to both halves: (j, i) would meet the same test
    with the same sum, as x + y == y + x bit for bit. The hops it mirrors,
    hop[i][k] and hop[j][k], cannot move during step k, since
    d(i, k) + d(k, k) = d(i, k); so dist and hop equal, entry for entry and
    type for type, those of the loop over every ordered pair. The
    comparison runs in C (map/compress); only improved entries are visited
    in Python.

    Before the loop, every pair i < j is checked: the minimum over k of
    d(i, k) + d(k, j), rows i and j, the loop's own operands in its order,
    must equal d(i, j). The terms k = i and k = j are d(i, j), so a pair
    passes exactly when no k would relax it. When every pair passes, no
    test of step 0 succeeds, step 0 leaves the table as it was, and so does
    every later step; the copied rows and the first next hops are then the
    loop's result, entry for entry and type for type. The check stops at
    the first pair that fails, and then the loop runs unchanged.
    """
    n = raw.n
    dist = [list(row) for row in raw.table]
    # one label list: the n^2 entries share its n int objects
    labels = list(range(n))
    hop: list[list[int | None]] = [
        [j if d != INF else None for j, d in zip(labels, row)] for row in dist
    ]
    if all(min(map(add, dist[i], dist[j])) == dist[i][j] for j in range(n) for i in range(j)):
        return ShortestSwaps(raw, dist, hop)
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            row_i = dist[i]
            d_ik = row_i[k]
            if d_ik == INF or i == k:
                continue
            hop_i = hop[i]
            via = hop_i[k]
            for j in compress(range(i + 1, n),
                              map(lt, map(add, repeat(d_ik), row_k[i + 1:]), row_i[i + 1:])):
                row_i[j] = dist[j][i] = d_ik + row_k[j]
                hop_i[j] = via
                hop_j = hop[j]
                hop_j[i] = hop_j[k]
    return ShortestSwaps(raw, dist, hop)


def all_pairs_optimize(costs: CostMatrix) -> CostMatrix:
    """Optimized table phi* from the all-pairs engine."""
    return shortest_swaps(costs).optimized


def _palindrome(path: Sequence[int], centre: int) -> list[Transposition]:
    """Swap sequence for (path[0] path[-1]) using each path edge twice
    except edge ``centre`` (path[centre] -- path[centre + 1]), used once."""
    i = centre
    last = len(path) - 1
    left = [Transposition(path[t], path[t + 1]) for t in range(i)]
    right = [Transposition(path[t + 1], path[t]) for t in range(last - 1, i, -1)]
    middle = [Transposition(path[i], path[i + 1])]
    return left + right + middle + right[::-1] + left[::-1]


def expand_transposition(a: int, b: int, engine: ShortestSwaps) -> Decomposition:
    """Concrete raw-swap sequence realising the optimized cost of (a b).

    The engine's argmin route is unrolled into a palindrome around its
    maximum edge, ties going to the lexicographically largest pair. The
    route is simple, so the sequence has at most 2n - 3 swaps; its product
    is exactly (a b), its length is odd, and its raw cost equals phi*(a, b).
    """
    key = (min(a, b), max(a, b))
    path = engine.route(*key)
    steps = [(engine.raw.cost(u, v), min(u, v), max(u, v)) for u, v in zip(path, path[1:])]
    out = Decomposition(tuple(_palindrome(path, steps.index(max(steps)))))
    if not validate_decomposition(out, Cycle(key)):
        raise ContractError(f"expansion of {key} does not multiply back")
    return out


def expand_decomposition(d: Decomposition, engine: ShortestSwaps) -> Decomposition:
    """Expand every entry of d into raw swaps; the product is unchanged."""
    seq: list[Transposition] = []
    for t in d:
        seq.extend(expand_transposition(t.a, t.b, engine).transpositions)
    return Decomposition(tuple(seq))
