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
with next hops, then two min-plus passes for phi* and its argmin edge, O(n^3)
in total. The same object serves the lower bounds (which read D) and the
expansion of an optimized swap back into raw swaps (a palindrome along the
argmin route, at most 2n - 3 swaps). ``all_pairs_optimize`` is its table.

Two reference routes stay as test oracles. ``optimize_costs`` keeps a list
of all pairs sorted by cost and repeatedly substitutes the cheapest-so-far
conjugations, recording which pair of swaps produced each improvement so the
substitution can be replayed into an explicit sequence. ``bellman_ford``
runs a two-table relaxation from one source: d2[v] is twice the cheapest
ordinary path cost, d1[v] the cheapest swap path cost, with predecessor
links for recovery. All routes must agree entrywise; tests enforce it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from operator import add, lt
from typing import Mapping, Sequence

from .costs import INF, CostMatrix, Number, _freeze, _fresh
from .errors import ContractError, InfeasibleError
from .permutation import Decomposition, Transposition

Pair = tuple[int, int]

# Predecessor link: (vertex, table) where table 1 means d1 and 2 means d2.
Pred = tuple[int, int] | None


@dataclass(frozen=True)
class OptimizerReport:
    """Optimized table plus, per improved pair, the two swaps that won.

    ``witness[(a, b)] = (t1, t2)`` records that (a b) = t2 t1 t2 was the
    final improvement applied to the pair, written with t2 the cheaper swap
    used twice. Replaying witnesses recursively yields a concrete sequence
    whose raw cost equals the optimized entry.
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
    return OptimizerReport(_freeze(rows, "optimized"), witness)


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


def _min_plus_row(best: list[Number], arg: list, offset: Number, row: Sequence[Number], via) -> None:
    """best[j] = min(best[j], offset + row[j]); arg[j] = via where it drops.

    The comparison runs in C (map/compress); only improved entries are
    visited in Python.
    """
    for j in compress(range(len(row)), map(lt, map(add, repeat(offset), row), best)):
        best[j] = offset + row[j]
        arg[j] = via


class ShortestSwaps:
    """All-pairs shortest paths of a raw table and its optimized swap costs.

    ``dist[i][j]`` is the cheapest ordinary path cost between labels i+1 and
    j+1 (0-based rows, the convention of ``CostMatrix.table``); ``hop[i][j]``
    is the next vertex on one such path, None when j is unreachable. Both
    come from ``shortest_swaps``. ``optimized`` (phi*) and the argmin edge
    behind each entry are computed on first use, so callers that only need
    distances never pay for them.
    """

    def __init__(self, raw: CostMatrix, dist: list[list[Number]], hop: list[list[int | None]]):
        self.raw = raw
        self.dist = dist
        self.hop = hop

    @cached_property
    def _swap_tables(self) -> tuple[CostMatrix, list[list[int | None]], list[list[int | None]]]:
        """phi*, and per pair the edge (u, v) attaining it as two argmin tables.

        Pass one: left[a][v] = min over u of 2 D(a, u) + w(u, v), argmin u.
        Pass two: phi*(a, b) = min over v of left[a][v] + 2 D(v, b), argmin v.
        Ties keep the first candidate met.
        """
        n = self.raw.n
        twice = [[2 * d for d in row] for row in self.dist]
        edges = [list(row) for row in self.raw.table]
        for i in range(n):
            edges[i][i] = INF    # the zero diagonal is not an edge
        left: list[list[Number]] = []
        left_u: list[list[int | None]] = []
        for a in range(n):
            best: list[Number] = [INF] * n
            arg: list[int | None] = [None] * n
            for u, d in enumerate(twice[a]):
                if d != INF:
                    _min_plus_row(best, arg, d, edges[u], u)
            left.append(best)
            left_u.append(arg)
        rows = _fresh(n, INF)
        right_v: list[list[int | None]] = []
        for a in range(n):
            best = [INF] * n
            arg = [None] * n
            for v, e in enumerate(left[a]):
                if e != INF:
                    _min_plus_row(best, arg, e, twice[v], v)
            right_v.append(arg)
            # the upper triangle is kept and mirrored, so float rounding
            # cannot make the table asymmetric
            for b in range(a + 1, n):
                rows[a][b] = rows[b][a] = best[b]
        return _freeze(rows, "optimized"), left_u, right_v

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

        The argmin walk a -> u, (u v), v -> b may revisit a vertex; every
        loop is cut out, which cannot raise the swap path cost.
        """
        if a == b:
            raise ValueError("need two distinct labels")
        i, j = a - 1, b - 1
        optimized, left_u, right_v = self._swap_tables
        if optimized.table[i][j] == INF:
            raise InfeasibleError(f"pair ({a}, {b}) has no finite-cost realisation")
        v = right_v[i][j]
        u = left_u[i][v]
        simple: list[int] = []
        for x in self.path(a, u + 1) + self.path(v + 1, b):
            if x in simple:
                del simple[simple.index(x) + 1:]
            else:
                simple.append(x)
        return simple


def shortest_swaps(raw: CostMatrix) -> ShortestSwaps:
    """Floyd-Warshall with next hops: the all-pairs engine behind phi*, the
    lower bounds and expansion."""
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
    return ShortestSwaps(raw, dist, hop)


def all_pairs_optimize(costs: CostMatrix) -> CostMatrix:
    """Optimized table phi* from the all-pairs engine."""
    return shortest_swaps(costs).optimized


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


def _palindrome(path: Sequence[int], centre: int) -> list[Transposition]:
    """Swap sequence for (path[0] path[-1]) using each path edge twice
    except edge ``centre`` (path[centre] -- path[centre + 1]), used once."""
    i = centre
    last = len(path) - 1
    left = [Transposition(path[t], path[t + 1]) for t in range(i)]
    right = [Transposition(path[t + 1], path[t]) for t in range(last - 1, i, -1)]
    middle = [Transposition(path[i], path[i + 1])]
    return left + right + middle + right[::-1] + left[::-1]


def _replay_witness(pair: Pair, witness: Mapping[Pair, tuple[Pair, Pair]], budget: int) -> list[Transposition]:
    if budget < 0:
        raise ContractError("witness recursion exceeded its depth bound")
    hit = witness.get(pair)
    if hit is None:
        return [Transposition(*pair)]
    t1, t2 = hit
    inner2 = _replay_witness(t2, witness, budget - 1)
    inner1 = _replay_witness(t1, witness, budget - 1)
    return inner2 + inner1 + inner2


def expand_transposition(a: int, b: int, source: OptimizerReport | PathTable | ShortestSwaps,
                         raw: CostMatrix) -> Decomposition:
    """Concrete swap sequence realising the optimized cost of (a b).

    With an OptimizerReport the recorded substitutions are replayed. With a
    PathTable (whose source must be a or b) the recovered path is unrolled
    into a palindrome around its earliest maximum edge. With ShortestSwaps
    the argmin route is unrolled around its maximum edge, ties going to the
    lexicographically largest pair; the route is simple, so the sequence
    has at most 2n - 3 swaps. Either way the product is exactly (a b), the
    length is odd, and the raw cost of the sequence equals the optimized
    cost.
    """
    if a == b:
        raise ValueError("need two distinct labels")
    key = (min(a, b), max(a, b))
    if isinstance(source, OptimizerReport):
        if source.optimized.cost(*key) == INF:
            raise InfeasibleError(f"pair {key} has no finite-cost realisation")
        seq = _replay_witness(key, source.witness, raw.n * raw.n + 2)
    elif isinstance(source, PathTable):
        if source.source not in (a, b):
            raise ValueError(f"path table rooted at {source.source} covers neither {a} nor {b}")
        other = b if source.source == a else a
        path = recover_path(source, other)
        if path[0] != a:
            path.reverse()
        weights = [raw.cost(u, v) for u, v in zip(path, path[1:])]
        seq = _palindrome(path, weights.index(max(weights)))
    elif isinstance(source, ShortestSwaps):
        path = source.route(*key)
        steps = [(raw.cost(u, v), min(u, v), max(u, v)) for u, v in zip(path, path[1:])]
        seq = _palindrome(path, steps.index(max(steps)))
    else:
        raise TypeError(f"cannot expand from {type(source).__name__}")

    out = Decomposition(tuple(seq))
    n = max(key[1], out.max_label())
    target = Decomposition((Transposition(*key),)).product(n)
    if out.product(n) != target:
        raise ContractError(f"expansion of {key} does not multiply back")
    return out


def expand_decomposition(d: Decomposition, source: OptimizerReport | PathTable | ShortestSwaps,
                         raw: CostMatrix) -> Decomposition:
    """Expand every entry of d; the product is unchanged."""
    seq: list[Transposition] = []
    for t in d:
        seq.extend(expand_transposition(t.a, t.b, source, raw).transpositions)
    return Decomposition(tuple(seq))
