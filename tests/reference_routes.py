"""Straightforward routes kept as test oracles for the optimized ones.

Each function here computes what a production routine computes, the way
the paper states it and without the production shortcuts, so properties
can require equal results:

- ``mld_table_quartic``: the interval DP evaluated as written, O(k^4);
- ``merge_cycles_rescan``: the cycle merge that rescans every pair on
  every join for the cheapest one linking two separate cycles;
- ``product_by_fold``: a transposition product as a left fold of
  ``apply_transposition``;
- ``optimize_costs``: phi* by the substitution sweep, which rewrites the
  third pair of every cheaper conjugation and records the winning pair of
  swaps as a witness;
- ``bellman_ford``: a single-source two-table relaxation, d1 the cheapest
  swap path cost and d2 twice the cheapest ordinary path cost, with
  predecessor links for ``recover_path``;
- ``expand_by_reference``: an optimized swap spelled out in raw swaps from
  either of those two, by witness replay or by a palindrome along the
  recovered path;
- ``mcd_dijkstra``: the exhaustive minimum M and its witness by plain
  Dijkstra through S_n, the search ``mcd_exact`` narrows with A*;
- ``transposition_min_cost_exact``: phi*(a, b) as the exhaustive minimum
  of ``mcd_exact`` on the single swap, inf where it is unreachable;
- ``transposition_path_cost``: the swap cost 2 * total - max edge along a
  concrete path;
- ``floyd_warshall_square``: the engine's Floyd-Warshall with next hops
  over every ordered pair, without the mirror over one triangle;
- ``swap_tables_with_argmins``: the engine's two min-plus passes with an
  argmin table each, and ``route_by_argmins``, the route they spell out;
- ``tree_decomposition``: a non-crossing spanning tree on a cycle turned
  into an MLD by peeling it at a vertex of degree two or more, and
  ``_segment_tree``, the segment tree of path distances as an edge list:
  together, the old route of ``metric_path_mcd``;
- ``mld_exact_enumeration``: the cheapest MLD of one cycle by scoring every
  labeled tree (Prufer decoding), filtered to the non-crossing ones.

Library routines that no command calls live here too, with the tests that
use them:

- ``apply_transposition`` and ``cayley_length``: one swap applied to a
  permutation, and the fewest swaps that sort it;
- ``cycles``: every cycle of a permutation, fixed points included, the
  reference for ``nontrivial_cycles``;
- ``mld_table`` and ``MldTable``: the interval DP with every split, by the
  production fill and split rule;
- ``is_metric``: the triangle inequality over all label triples;
- ``segment`` and ``extended_metric_path_optimized``: the closed form of
  phi* on an extended path table, a second phi* route for one family;
- ``sharpened_lower_bound`` with ``_attainable``: the integer floor of an
  all-integer table, the fractional floor's ceiling raised by one when no
  cost multiset of the permutation's length parity can hit it. Time and
  memory are linear in the floor's value.
"""
import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product as _product, repeat
from operator import add, lt
from typing import Mapping, Sequence

from permsort import (
    INF,
    ContractError,
    CostMatrix,
    Cycle,
    Decomposition,
    DefiningPath,
    InfeasibleError,
    Permutation,
    Transposition,
    mcd_exact,
    nontrivial_cycles,
)
from permsort.costs import Number, _freeze, _fresh
from permsort.errors import DEFAULT_LIMIT
from permsort.mld import Edge, _check, _fill, _split
from permsort.optimize import ShortestSwaps, _palindrome, shortest_swaps
from permsort.oracle import _check_limit

Pair = tuple[int, int]

TREE_LIMIT = 8

# Predecessor link: (vertex, table) where table 1 means d1 and 2 means d2.
Pred = tuple[int, int] | None


def apply_transposition(p: Permutation, t: Transposition) -> Permutation:
    """Left-multiply by (a b): the two labels swap wherever they appear as images.

    Joins two cycles of p into one when a and b sit in different cycles,
    splits one cycle in two when they share a cycle.
    """
    if t.b > p.n:
        raise ValueError(f"label {t.b} outside 1..{p.n}")
    a, b = t.a, t.b
    images = list(p.images)
    for i, v in enumerate(images):
        if v == a:
            images[i] = b
        elif v == b:
            images[i] = a
    return Permutation(tuple(images))


def cycles(p: Permutation) -> list[Cycle]:
    """Disjoint cycles of p, fixed points included, sorted by minimum element."""
    seen: set[int] = set()
    out = []
    for start in range(1, p.n + 1):
        if start in seen:
            continue
        elems = [start]
        while p.images[elems[-1] - 1] != start:
            elems.append(p.images[elems[-1] - 1])
        seen.update(elems)
        out.append(Cycle(elems))
    return out


def cayley_length(p: Permutation) -> int:
    """Minimum number of transpositions whose product is p: n minus #cycles."""
    return p.n - len(cycles(p))


@dataclass(frozen=True)
class MldTable:
    """Interval DP table for one cycle: costs and chosen (s, r) splits."""

    cycle: Cycle
    cost: tuple[tuple[Number, ...], ...]
    split: tuple[tuple[Edge | None, ...], ...]

    def interval_cost(self, i: int, j: int) -> Number:
        return self.cost[i][j]


def mld_table(cycle: Cycle, costs: CostMatrix) -> MldTable:
    """The interval table with every split, None on an infinite interval.
    Ties pick the smallest r, then smallest s."""
    tables = _fill(cycle, costs)
    k = cycle.k
    cost = ((0,) * (k + 1),) + tuple((0,) * i + tuple(tables[1][i]) for i in range(1, k + 1))
    split = tuple(tuple(_split(tables, i, j) if 0 < i < j - 1 and cost[i][j] != INF else None
                        for j in range(k + 1))
                  for i in range(k + 1))
    return MldTable(cycle, cost, split)


def is_metric(costs: CostMatrix) -> bool:
    """Triangle inequality over all label triples, infinities absorbing."""
    n = costs.n
    t = costs.table
    for a in range(n):
        for b in range(n):
            if b == a:
                continue
            ab = t[a][b]
            if ab == INF:
                continue
            for c in range(n):
                if c == a or c == b:
                    continue
                if t[a][c] > ab + t[b][c]:
                    return False
    return True


def segment(path: DefiningPath, a: int, b: int) -> tuple[Number, Number]:
    """(weight sum, largest single weight) strictly between a and b."""
    i, j = sorted((path.positions[a], path.positions[b]))
    if i == j:
        raise ValueError("segment endpoints must differ")
    chunk = path.weights[i:j]
    return sum(chunk), max(chunk)


def extended_metric_path_optimized(path: DefiningPath) -> CostMatrix:
    """Closed form for the optimized costs of an extended path table.

    The cheapest swap route for (a, b) walks the path segment between them,
    so the optimized cost is twice the segment sum minus its largest weight
    (as total + (total - top), which stays finite where 2 * total may not).
    """
    n = path.n
    rows = _fresh(n, INF)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            total, top = segment(path, a, b)
            rows[a - 1][b - 1] = rows[b - 1][a - 1] = total + (total - top)
    return _freeze(rows, "optimized")


def _attainable(target: int, values: list[int]) -> tuple[bool, bool]:
    """Whether an even, and an odd, number of positive values can sum to target."""
    vals = sorted({v for v in values if 0 < v <= target})
    even = [True] + [False] * target
    odd = [False] * (target + 1)
    for c in range(1, target + 1):
        even[c] = any(odd[c - v] for v in vals if v <= c)
        odd[c] = any(even[c - v] for v in vals if v <= c)
    return even[target], odd[target]


def sharpened_lower_bound(p: Permutation, raw: CostMatrix, lower_bound: float) -> int | None:
    """Integer strengthening of the fractional floor.

    Only for all-integer tables: take the ceiling, and add one more when no
    cost multiset of the right length parity can hit the ceiling although
    the opposite parity could. Anything subtler is left on the table.
    """
    values = [v for _, _, v in raw.entries() if v != INF]
    if lower_bound == INF or not all(isinstance(v, int) for v in values):
        return None
    target = math.ceil(lower_bound)
    if target == 0 or 0 in values:
        return target    # nothing to hit, or a free swap fixes the parity
    by_parity = _attainable(target, values)
    parity = cayley_length(p) % 2
    if not by_parity[parity] and by_parity[1 - parity]:
        return target + 1
    return target


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
    p = Permutation(range(1, n + 1))
    for t in reversed(d.transpositions):
        p = apply_transposition(p, t)
    return p


@dataclass(frozen=True)
class OptimizerReport:
    """Optimized table plus, per improved pair, the two swaps that won.

    ``witness[(a, b)] = (t1, t2)`` records that (a b) = t2 t1 t2 was the
    final improvement applied to the pair, written with t2 the cheaper swap
    used twice. Replaying witnesses yields a concrete sequence whose raw
    cost equals the optimized entry.
    """

    optimized: CostMatrix
    witness: Mapping[Pair, tuple[Pair, Pair]]


@dataclass(frozen=True)
class PathTable:
    """Single-source relaxation result over a cost table.

    d1[v] is the cheapest swap path cost from the source to v, d2[v] twice
    the cheapest ordinary path cost. Entries are indexed 1..n; index 0 is
    padding. pred1/pred2 hold (vertex, table) links, None at the source and
    at unreached vertices.
    """

    source: int
    d1: tuple[Number, ...]
    d2: tuple[Number, ...]
    pred1: tuple[Pred, ...]
    pred2: tuple[Pred, ...]


def _third_pair(p: Pair, q: Pair) -> Pair | None:
    """Symmetric difference when the pairs share exactly one label."""
    shared = set(p) & set(q)
    if len(shared) != 1:
        return None
    rest = (set(p) | set(q)) - shared
    a, b = sorted(rest)
    return (a, b)


def optimize_costs(raw: CostMatrix) -> OptimizerReport:
    """Sorted-list substitution sweep, repeated until no entry moves.

    Each sweep walks pairs from cheap to expensive; for pair i it tries every
    cheaper pair j as the doubled swap and improves the third pair when
    cost(i) + 2 cost(j) beats it. The list is re-sorted after every i so
    later iterations see fresh costs. A single sweep normally suffices; the
    outer loop guards the fixpoint.
    """
    n = raw.n
    cost: dict[Pair, Number] = {(a, b): v for a, b, v in raw.entries()}
    witness: dict[Pair, tuple[Pair, Pair]] = {}
    omega = sorted(cost)
    sort_key = lambda p: (cost[p], p)

    changed = True
    while changed:
        changed = False
        omega.sort(key=sort_key)
        for i in range(1, len(omega)):
            t1 = omega[i]
            phi1 = cost[t1]
            for j in range(i):
                t2 = omega[j]
                third = _third_pair(t1, t2)
                if third is None:
                    continue
                candidate = phi1 + 2 * cost[t2]
                if candidate < cost[third]:
                    cost[third] = candidate
                    witness[third] = (t1, t2)
                    changed = True
            omega.sort(key=sort_key)

    rows = _fresh(n, INF)
    for (a, b), v in cost.items():
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = v
    # the validating constructor: the oracle does not share the shortcut of
    # the route it checks
    return OptimizerReport(CostMatrix(n, tuple(tuple(r) for r in rows), "optimized"), witness)


def bellman_ford(costs: CostMatrix, source: int) -> PathTable:
    """Two-table relaxation from one source vertex.

    Edges are scanned in lexicographic order for n-1 passes with an early
    exit once a pass changes nothing. Only finite edges participate.
    """
    n = costs.n
    if not 1 <= source <= n:
        raise ValueError(f"source {source} outside 1..{n}")
    d1: list[Number] = [INF] * (n + 1)
    d2: list[Number] = [INF] * (n + 1)
    pred1: list[Pred] = [None] * (n + 1)
    pred2: list[Pred] = [None] * (n + 1)
    d1[source] = d2[source] = 0
    for u in range(1, n + 1):
        if u == source:
            continue
        w = costs.cost(source, u)
        if w != INF:
            # The direct edge seeds both tables: counted once in d1, twice in d2.
            d1[u] = w
            d2[u] = 2 * w
            pred1[u] = (source, 2)
            pred2[u] = (source, 2)

    edges = [(a, b, v) for a, b, v in costs.entries() if v != INF]
    for _ in range(n - 1):
        moved = False
        for u, v, w in edges:
            w2 = 2 * w
            if d2[v] > d2[u] + w2:
                d2[v] = d2[u] + w2
                pred2[v] = (u, 2)
                moved = True
            if d2[u] > d2[v] + w2:
                d2[u] = d2[v] + w2
                pred2[u] = (v, 2)
                moved = True
            if d1[v] > d2[u] + w:
                d1[v] = d2[u] + w
                pred1[v] = (u, 2)
                moved = True
            if d1[u] > d2[v] + w:
                d1[u] = d2[v] + w
                pred1[u] = (v, 2)
                moved = True
            if d1[v] > d1[u] + w2:
                d1[v] = d1[u] + w2
                pred1[v] = (u, 1)
                moved = True
            if d1[u] > d1[v] + w2:
                d1[u] = d1[v] + w2
                pred1[u] = (v, 1)
                moved = True
        if not moved:
            break

    return PathTable(source, tuple(d1), tuple(d2), tuple(pred1), tuple(pred2))


def recover_path(table: PathTable, v: int, *, which: int = 1) -> list[int]:
    """Vertex sequence from the source to v behind d1[v] (or d2[v]).

    Follows predecessor links; each (vertex, table) state may appear only
    once, which the walk asserts.
    """
    d = table.d1 if which == 1 else table.d2
    if v == table.source:
        return [v]
    if d[v] == INF:
        raise InfeasibleError(f"vertex {v} is unreachable from {table.source}")
    preds = (None, table.pred1, table.pred2)
    state = (v, which)
    out = [v]
    seen = {state}
    while state[0] != table.source:
        link = preds[state[1]][state[0]]
        if link is None:
            raise ContractError(f"broken predecessor chain at {state}")
        if link in seen:
            raise ContractError(f"predecessor cycle at {link}")
        seen.add(link)
        out.append(link[0])
        state = link
    out.reverse()
    return out


def _replay_witness(pair: Pair, witness: Mapping[Pair, tuple[Pair, Pair]], depth_bound: int) -> list[Transposition]:
    """(a b) = t2 t1 t2 unrolled left to right with an explicit stack."""
    out: list[Transposition] = []
    stack = [(pair, 0)]
    while stack:
        pair, depth = stack.pop()
        if depth > depth_bound:
            raise ContractError("witness replay exceeded its depth bound")
        hit = witness.get(pair)
        if hit is None:
            out.append(Transposition(*pair))
            continue
        t1, t2 = hit
        # popped in written order: t2, then t1, then t2
        stack += [(t2, depth + 1), (t1, depth + 1), (t2, depth + 1)]
    return out


def expand_by_reference(a: int, b: int, source: OptimizerReport | PathTable,
                        raw: CostMatrix) -> Decomposition:
    """Raw swaps realising the optimized cost of (a b), from a reference route.

    An OptimizerReport replays its witnesses. A PathTable, whose source must
    be a or b, unrolls the recovered path into a palindrome around its
    earliest maximum edge.
    """
    if a == b:
        raise ValueError("need two distinct labels")
    key = (min(a, b), max(a, b))
    if isinstance(source, OptimizerReport):
        if source.optimized.cost(*key) == INF:
            raise InfeasibleError(f"pair {key} has no finite-cost realisation")
        seq = _replay_witness(key, source.witness, raw.n * raw.n + 2)
    elif isinstance(source, PathTable):
        if source.source not in key:
            raise ValueError(f"path table rooted at {source.source} covers neither {a} nor {b}")
        path = recover_path(source, a + b - source.source)
        if path[0] != a:
            path.reverse()
        weights = [raw.cost(u, v) for u, v in zip(path, path[1:])]
        seq = _palindrome(path, weights.index(max(weights)))
    else:
        raise TypeError(f"cannot expand from {type(source).__name__}")
    out = Decomposition(tuple(seq))
    n = max(t.b for t in (Transposition(*key), *out))
    if out.product(n) != Decomposition((Transposition(*key),)).product(n):
        raise ContractError(f"expansion of {key} does not multiply back")
    return out


def mcd_dijkstra(p: Permutation, costs: CostMatrix) -> tuple[Number, Decomposition | None]:
    """Minimum-cost sorting by plain Dijkstra from p through S_n.

    Neighbours are generated when a permutation pops, in lexicographic pair
    order, and the search stops when the identity pops. Returns the cost
    and the witness read back along the predecessor links; (inf, None) when
    the identity is unreachable.
    """
    n = p.n
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
        return INF, None
    labels: list[Transposition] = []
    at = target
    while at != start:
        at, a, b = prev[at]
        labels.append(Transposition(a, b))
    labels.reverse()
    return dist[target], Decomposition(tuple(labels))


def transposition_min_cost_exact(a: int, b: int, costs: CostMatrix,
                                 limit: int = DEFAULT_LIMIT) -> Number:
    """Exhaustively computed cheapest way to realize a single swap."""
    images = list(range(1, costs.n + 1))
    images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
    try:
        return mcd_exact(Permutation(tuple(images)), shortest_swaps(costs), limit)[1]
    except InfeasibleError:
        return INF


def transposition_path_cost(path: Sequence[int], costs: CostMatrix) -> Number:
    """Achievable swap cost along a concrete path: 2 * total - max edge."""
    if len(path) < 2:
        raise ValueError("a path needs at least two vertices")
    total: Number = 0
    top: Number = 0
    for u, v in zip(path, path[1:]):
        w = costs.cost(u, v)
        if w == INF:
            return INF
        total += w
        top = max(top, w)
    return 2 * total - top


def _min_plus_row(best: list[Number], arg: list, offset: Number, row: Sequence[Number], via) -> None:
    """best[j] = min(best[j], offset + row[j]); arg[j] = via where it drops.

    One Floyd-Warshall step with its next hops. The comparison runs in C
    (map/compress); only improved entries are visited in Python.
    """
    for j in compress(range(len(row)), map(lt, map(add, repeat(offset), row), best)):
        best[j] = offset + row[j]
        arg[j] = via


def floyd_warshall_square(raw: CostMatrix) -> tuple[list[list[Number]], list[list[int | None]]]:
    """Distances and next hops of ``shortest_swaps``, relaxing every ordered pair.

    Each step k improves row i from row k for every i != k with a finite
    d(i, k), reading no symmetry of the table.
    """
    n = raw.n
    dist = [list(row) for row in raw.table]
    hop: list[list[int | None]] = [
        [j if dist[i][j] != INF else None for j in range(n)] for i in range(n)
    ]
    for k in range(n):
        row_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik != INF and i != k:
                _min_plus_row(dist[i], hop[i], d_ik, row_k, hop[i][k])
    return dist, hop


def swap_tables_with_argmins(engine: ShortestSwaps) -> tuple[list[list[Number]], list[list], list[list]]:
    """phi* rows and, per pair, the edge (u, v) attaining it as two argmin tables.

    Pass one: left[a][v] = min over u of 2 D(a, u) + w(u, v), argmin u.
    Pass two: phi*(a, b) = min over v of left[a][v] + 2 D(v, b), argmin v.
    Candidates are scanned in index order, skipping an infinite offset, and
    only a strictly smaller one replaces the best: ties keep the first met.
    Both passes read W and D in the order the formulas write them, with no
    use of their symmetry; the upper triangle of pass two is mirrored, as in
    the engine's table.
    """
    n = engine.raw.n
    twice = [[2 * d for d in row] for row in engine.dist]
    edges = [list(row) for row in engine.raw.table]
    for i in range(n):
        edges[i][i] = INF
    left: list[list[Number]] = []
    left_u: list[list] = []
    for a in range(n):
        best: list[Number] = [INF] * n
        arg: list = [None] * n
        for u, d in enumerate(twice[a]):
            if d != INF:
                _min_plus_row(best, arg, d, edges[u], u)
        left.append(best)
        left_u.append(arg)
    rows = _fresh(n, INF)
    right_v: list[list] = []
    for a in range(n):
        best = [INF] * n
        arg = [None] * n
        for v, e in enumerate(left[a]):
            if e != INF:
                _min_plus_row(best, arg, e, twice[v], v)
        right_v.append(arg)
        for b in range(a + 1, n):
            rows[a][b] = rows[b][a] = best[b]
    return rows, left_u, right_v


def route_by_argmins(engine: ShortestSwaps, left_u: list[list], right_v: list[list],
                     a: int, b: int) -> list[int]:
    """``ShortestSwaps.route`` read off the argmin tables of the two passes."""
    v = right_v[a - 1][b - 1]
    u = left_u[a - 1][v]
    simple: list[int] = []
    for x in engine.path(a, u + 1) + engine.path(v + 1, b):
        if x in simple:
            del simple[simple.index(x) + 1:]
        else:
            simple.append(x)
    return simple


def tree_decomposition(cycle: Cycle, edges: list[Edge]) -> Decomposition:
    """Turn a non-crossing spanning tree on the cycle's elements into an MLD.

    Peel the tree at a vertex of degree two or more: its furthest neighbour
    (in cycle positions) splits the circle into a prefix and a suffix
    component, each of which recurses. Crossing trees fail the split check.
    """
    labels = cycle.elements
    label_set = set(labels)
    for u, v in edges:
        if u not in label_set or v not in label_set:
            raise ValueError(f"tree edge ({u}, {v}) leaves the cycle support")
    seq = _tree_rec(list(labels), [tuple(sorted(e)) for e in edges])
    d = Decomposition(tuple(seq))
    _check(d, cycle, expected_len=cycle.k - 1)
    return d


def _tree_rec(seq: list[int], edges: list[Edge]) -> list[Transposition]:
    """Split the tree depth-first with an explicit stack, second arc first."""
    out: list[Transposition] = []
    stack = [(seq, edges)]
    while stack:
        seq, edges = stack.pop()
        m = len(seq)
        if len(edges) != m - 1:
            raise ValueError(f"{len(edges)} edges cannot span {m} vertices")
        if m == 1:
            continue
        if m == 2:
            out.append(Transposition(seq[0], seq[1]))
            continue

        degree = {v: 0 for v in seq}
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        start = next(i for i, v in enumerate(seq) if degree[v] >= 2)
        seq = seq[start:] + seq[:start]
        pos = {v: i + 1 for i, v in enumerate(seq)}

        r = max(pos[u] + pos[v] - pos[seq[0]] for u, v in edges if seq[0] in (u, v))
        cut = tuple(sorted((seq[0], seq[r - 1])))

        # Component of position 1 once the cut edge is removed.
        adj: dict[int, list[int]] = {v: [] for v in seq}
        for u, v in edges:
            if (u, v) == cut:    # edges arrive sorted
                continue
            adj[u].append(v)
            adj[v].append(u)
        comp = {seq[0]}
        todo = [seq[0]]
        while todo:
            for w in adj[todo.pop()]:
                if w not in comp:
                    comp.add(w)
                    todo.append(w)
        s = max(pos[v] for v in comp)
        if comp != set(seq[:s]):
            raise ContractError("tree is not non-crossing for this cycle order")

        first = seq[:s]
        second = seq[s:] + [seq[0]]
        second_set = set(second)
        first_edges = [e for e in edges if e[0] in comp and e[1] in comp]
        second_edges = [e for e in edges if not (e[0] in comp and e[1] in comp)]
        for u, v in second_edges:
            if u not in second_set or v not in second_set:
                raise ContractError("tree is not non-crossing for this cycle order")
        stack.append((first, first_edges))
        stack.append((second, second_edges))
    return out


def _segment_tree(seq: list[int], pos: dict[int, int]) -> list[Edge]:
    """Non-crossing spanning tree for a cycle under path-distance costs.

    Take the element earliest along the defining path; its nearest support
    vertex t splits the cycle written from that element into two arcs that
    are split the same way, depth-first with an explicit stack.
    """
    out: list[Edge] = []
    stack = [seq]
    while stack:
        seq = stack.pop()
        if len(seq) == 1:
            continue
        if len(seq) == 2:
            out.append(tuple(sorted(seq)))
            continue
        leaf_idx = min(range(len(seq)), key=lambda i: pos[seq[i]])
        seq = seq[leaf_idx:] + seq[:leaf_idx]
        parent = min(seq[1:], key=lambda v: pos[v])
        p = seq.index(parent)
        out.append(tuple(sorted((seq[0], parent))))
        stack.append(seq[p:])
        stack.append(seq[1:p + 1])
    return out



@dataclass(frozen=True)
class TreeEnumeration:
    cycle: Cycle
    min_cost: Number
    witness: Decomposition | None
    tree_count: int
    noncrossing_count: int
    min_cost_any_tree: Number


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
