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
- ``transposition_min_cost_exact``: phi*(a, b) as the exhaustive minimum
  of ``mcd_exact`` on the single swap.
"""
from dataclasses import dataclass
from typing import Mapping

from permsort import (
    INF,
    ContractError,
    CostMatrix,
    Cycle,
    Decomposition,
    InfeasibleError,
    Permutation,
    Transposition,
    apply_transposition,
    mcd_exact,
    nontrivial_cycles,
)
from permsort.costs import Number, _fresh
from permsort.mld import Edge, MldTable
from permsort.optimize import _palindrome
from permsort.oracle import DEFAULT_LIMIT

Pair = tuple[int, int]

# Predecessor link: (vertex, table) where table 1 means d1 and 2 means d2.
Pred = tuple[int, int] | None


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
    n = max(key[1], out.max_label())
    if out.product(n) != Decomposition((Transposition(*key),)).product(n):
        raise ContractError(f"expansion of {key} does not multiply back")
    return out


def transposition_min_cost_exact(a: int, b: int, costs: CostMatrix,
                                 limit: int = DEFAULT_LIMIT) -> Number:
    """Exhaustively computed cheapest way to realize a single swap."""
    images = list(range(1, costs.n + 1))
    images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
    return mcd_exact(Permutation(tuple(images)), costs, limit).min_cost
