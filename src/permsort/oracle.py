"""Exhaustive reference answers for small instances.

One brute force lives here. ``mcd_exact`` finds a shortest path through
the Cayley graph of S_n with transpositions as edges, so it returns the
true minimum-cost sorting of any permutation, no structural assumptions at
all. The graph is never built: a permutation's neighbours are generated
when it is popped.

The search is A* under the paper's floor h(u) = 1/2 sum over i of
D(i, u(i)), D the shortest-path distances of the ``ShortestSwaps`` engine
it is handed; the caller reads phi* from the same engine. The floor is
consistent: a swap (a b) of cost w moves two images, each distance term
changes by at most D(a, b) <= w, so h(u) <= w + h(v). A swap changes two
terms, so each neighbour's floor costs O(1); the start's floor adds its n
terms left to right, in label order. The first pop of the identity gives
M; the search then closes every state below M whose g + h is within M
plus the ``tolerance`` slack (none on integer tables).

The printed witness is Dijkstra's: walking back from the identity, each
step takes the tight predecessor Dijkstra pops first. The identity is the
smallest image tuple, so Dijkstra pops it before any other state at
distance M, and no state at M or beyond can precede it. Every state on a
cheapest path to a closed state, and every tight predecessor of one, has
g + h no larger than that state's, so it is closed too. Dijkstra replayed
over the closed states alone therefore relaxes every edge that decides M
and the witness, and returns both bit for bit, as ``(witness, M)``. A floor
of inf means some label cannot reach its place: the identity is unreachable,
and ``mcd_exact`` raises InfeasibleError.

Every key the search compares stays below 8n times the sum of the finite
weights: a distance is at most that sum, the floor at most n times it and
M at most 2(n - 1) times it. Where that product, the weights added left
to right in pair order, overflows a float, the floor is dropped to 0
rather than let a distance, the floor or a key round to inf; the search
then pops in g order, as Dijkstra does.

The search explodes factorially in the worst case; the limit guard keeps
it from being called on sizes where "exact" means "never returns". It is
for tests and the CLI oracle command, not for production sorting.
"""
from __future__ import annotations

import heapq
from functools import reduce
from operator import add

from .costs import INF, Number, tolerance
from .errors import DEFAULT_LIMIT, ContractError, InfeasibleError, SizeLimitError
from .optimize import ShortestSwaps
from .permutation import Decomposition, Permutation, Transposition, validate_decomposition


def _check_limit(n: int, limit: int):
    if n > limit:
        raise SizeLimitError(
            f"n={n} exceeds the exhaustive-search limit {limit}; "
            "raise the limit explicitly if you really want this"
        )


def mcd_exact(p: Permutation, engine: ShortestSwaps,
              limit: int = DEFAULT_LIMIT) -> tuple[Decomposition, Number]:
    """True minimum-cost sorting by shortest path through S_n.

    A* from p over image tuples under the paper's floor, then Dijkstra
    replayed over the states the A* closed (see the module docstring). The
    swaps are ``engine.raw``'s and the floor reads ``engine.dist``. Returns
    the witness, which multiplies back to p, and its cost M. Raises
    InfeasibleError when the target is unreachable: infinite costs can
    disconnect the graph, and float sums can pass the largest double.
    """
    n = p.n
    costs = engine.raw
    if costs.n != n:
        raise ValueError(f"cost table is for n={costs.n}, permutation has n={n}")
    _check_limit(n, limit)
    # finite swaps in lexicographic pair order: the scan order of every pop
    swaps = [(a, b, w) for a, b, w in costs.entries() if w != INF]
    if 8 * n * reduce(add, (w for _, _, w in swaps), 0) == INF:
        # floats near the largest double: a distance, the floor or a key
        # could overflow, so the floor drops to 0 and the search is Dijkstra's
        dist = [[0] * n for _ in range(n)]
    else:
        dist = engine.dist
    start = p.images
    floor = reduce(add, (dist[i][x - 1] for i, x in enumerate(start)), 0)
    # an infinite floor: some label cannot reach its place; otherwise the
    # swaps inside each connected component generate every permutation of it
    closed = _closed_states(start, floor, swaps, dist) if floor != INF else set()
    if tuple(range(1, n + 1)) not in closed:
        # with a finite floor, float sums past the largest double: every route costs inf
        raise InfeasibleError("target unreachable: some required swap has no finite route")
    cost, witness = _replay(start, swaps, closed)
    if not validate_decomposition(witness, p):
        raise ContractError("oracle witness failed validation")
    return witness, cost


def _closed_states(start: tuple[int, ...], floor: Number, swaps, dist) -> set[tuple[int, ...]]:
    """The identity, and every state the A* pops below M within the closing bound.

    Keys are 2g + H with H(u) = sum over i of D(i, u(i)), twice the paper's
    floor, so they stay exact on integer tables. A swap moves two images,
    and H moves by the four distances they trade. The first pop of the
    identity fixes M; the search then closes every state with g < M + slack
    and 2g + H <= 2(M + slack), the slack being ``tolerance`` of M and the
    costs (0 on integer tables).
    """
    target = tuple(range(1, len(start) + 1))
    weights = [w for _, _, w in swaps]
    best: dict[tuple[int, ...], Number] = {start: 0}
    heap: list[tuple[Number, Number, Number, tuple[int, ...]]] = [(floor, 0, floor, start)]
    closed: set[tuple[int, ...]] = set()
    # g_bound and key_bound stay inf until the identity pops
    g_bound = key_bound = INF
    where = [0] * (len(start) + 1)
    while heap and heap[0][0] <= key_bound:
        _, g, h, u = heapq.heappop(heap)
        if g > best[u] or (g >= g_bound and u != target):
            continue
        closed.add(u)
        if u == target:
            if g_bound == INF:
                g_bound = g + tolerance(g, *weights)
                key_bound = 2 * g_bound
            continue
        for i, x in enumerate(u):
            where[x] = i
        for a, b, w in swaps:
            ng = g + w
            if ng >= g_bound:
                continue
            i, j = where[a], where[b]
            row_i, row_j = dist[i], dist[j]
            nh = h - row_i[a - 1] - row_j[b - 1] + row_i[b - 1] + row_j[a - 1]
            key = 2 * ng + nh
            if key > key_bound:
                continue
            images = list(u)
            images[i], images[j] = b, a
            v = tuple(images)
            if ng < best.get(v, INF):
                best[v] = ng
                heapq.heappush(heap, (key, ng, nh, v))
    return closed


def _replay(start: tuple[int, ...], swaps, closed: set[tuple[int, ...]]) -> tuple[Number, Decomposition]:
    """Dijkstra from start over the closed states only: M and its witness."""
    target = tuple(range(1, len(start) + 1))
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
            if v in closed and nd < dist.get(v, INF):
                dist[v] = nd
                prev[v] = (u, a, b)
                heapq.heappush(heap, (nd, v))

    labels: list[Transposition] = []
    at = target
    while at != start:
        at, a, b = prev[at]
        labels.append(Transposition(a, b))
    labels.reverse()
    return dist[target], Decomposition(tuple(labels))
