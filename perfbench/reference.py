"""Independent reference answers for checking permsort's outputs.

Nothing here imports permsort; every quantity is recomputed from the
definitions, by different algorithms where the program has a choice:

- ``distances``: Floyd-Warshall shortest paths D.
- ``phi_star``: the cheapest cost of realising a swap through conjugations,
  phi*(a, b) = min over edges (u, v) of 2 D(a, u) + w(u, v) + 2 D(v, b),
  as two min-plus passes over D (the program relaxes per source instead).
- ``floor``: the lower bound 1/2 * sum over i of D(i, p(i)).
- ``interval_dp``: the cheapest minimum-length decomposition L of one cycle,
  factored through B(i, r) = min_s C(i, s) + C(s+1, r) in O(k^3) (the
  program runs the unfactored O(k^4) recurrence).
- ``chain``: the adjacent chain S, the ring total minus its largest pair.
- ``kruskal_joins``: the cheapest links that merge all moved cycles.
- ``sorting_cost``: Dijkstra over the whole of S_n, for n <= 7.
- ``product``: multiply a transposition sequence right to left.

Tables are 0-based n x n lists with ``inf`` for absent pairs; labels and
permutation images are 1-based, as in the program's files.
"""
from __future__ import annotations

import heapq
import random

INF = float("inf")


def distances(w: list[list[float]]) -> list[list[float]]:
    n = len(w)
    d = [row[:] for row in w]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def phi_star(w: list[list[float]]) -> list[list[float]]:
    """Optimized swap costs by two min-plus passes over the distances."""
    n = len(w)
    d = distances(w)
    two_d = [[2 * x for x in row] for row in d]
    edges = [(u, v, w[u][v]) for u in range(n) for v in range(n)
             if u != v and w[u][v] != INF]
    out = []
    for a in range(n):
        # reach[v]: cheapest walk from a whose last edge, ending in v, is used once
        reach = [INF] * n
        da = two_d[a]
        for u, v, c in edges:
            if da[u] + c < reach[v]:
                reach[v] = da[u] + c
        row = [min(reach[v] + two_d[v][b] for v in range(n)) for b in range(n)]
        row[a] = 0
        out.append(row)
    return out


def cycles(images) -> list[list[int]]:
    """Cycles of length >= 2, each starting at its smallest label."""
    seen = set()
    out = []
    for start in range(1, len(images) + 1):
        if start in seen or images[start - 1] == start:
            continue
        cyc, cur = [], start
        while cur not in seen:
            seen.add(cur)
            cyc.append(cur)
            cur = images[cur - 1]
        out.append(cyc)
    return out


def floor(images, d: list[list[float]]) -> float:
    return sum(d[i][v - 1] for i, v in enumerate(images)) / 2


def interval_dp(labels: list[int], phi: list[list[float]]) -> float:
    """Cheapest minimum-length decomposition L of the cycle ``labels``."""
    return interval_table(labels, phi)[0][-1] if len(labels) > 1 else 0


def interval_table(labels: list[int], phi: list[list[float]]) -> list[list[float]]:
    """C[i][j]: cheapest non-crossing spanning tree on positions i..j (0-based).

    C(i, j) = min over i < r <= j of B(i, r) + C(r, j) + phi(i, r) with
    B(i, r) = min over i <= s < r of C(i, s) + C(s+1, r) and C(i, i) = 0.
    """
    k = len(labels)
    ph = [[phi[a - 1][b - 1] for b in labels] for a in labels]
    c = [[0] * k for _ in range(k)]
    b = [[INF] * k for _ in range(k)]
    for span in range(1, k):
        for i in range(k - span):
            j = i + span
            ci = c[i]
            b[i][j] = min(ci[s] + c[s + 1][j] for s in range(i, j))
            bi, pi = b[i], ph[i]
            c[i][j] = min(bi[r] + c[r][j] + pi[r] for r in range(i + 1, j + 1))
    return c


def chain(labels: list[int], phi: list[list[float]]) -> float:
    k = len(labels)
    if k < 2:
        return 0
    ring = [phi[labels[t] - 1][labels[(t + 1) % k] - 1] for t in range(k)]
    return sum(ring) - max(ring)


def kruskal_joins(images, phi: list[list[float]]) -> list[tuple[int, int]]:
    """Cheapest pairs linking separate moved cycles, in acceptance order.

    Pairs are taken by (phi, a, b); a pair is accepted when it links two
    components not yet joined (union-find over the cycles).
    """
    cyc = cycles(images)
    owner = {e: i for i, c in enumerate(cyc) for e in c}
    parent = list(range(len(cyc)))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    support = sorted(owner)
    pairs = sorted((phi[a - 1][b - 1], a, b)
                   for i, a in enumerate(support) for b in support[i + 1:])
    joins = []
    for _, a, b in pairs:
        ra, rb = root(owner[a]), root(owner[b])
        if ra != rb:
            parent[rb] = ra
            joins.append((a, b))
            if len(joins) == len(cyc) - 1:
                break
    return joins


def merged(images, joins: list[tuple[int, int]]) -> tuple[int, ...]:
    """(a_m b_m) ... (a_1 b_1) p: the joins applied after p, in order."""
    out = list(images)
    for a, b in joins:
        out = [b if v == a else a if v == b else v for v in out]
    return tuple(out)


def product(n: int, swaps) -> tuple[int, ...]:
    """Images of t_1 t_2 ... t_m, where t_m acts first."""
    out = []
    for x in range(1, n + 1):
        for a, b in reversed(swaps):
            if x == a:
                x = b
            elif x == b:
                x = a
        out.append(x)
    return tuple(out)


def swap_cost(swaps, table: list[list[float]]) -> float:
    return sum(table[a - 1][b - 1] for a, b in swaps)


def sorting_cost(images, w: list[list[float]]) -> float:
    """Cheapest product of transpositions equal to ``images``, by Dijkstra
    from the identity over all n! permutations (right multiplication).

    The search settles the whole of S_n instead of stopping at the target,
    so the set-up time it adds does not swing with the permutation drawn.
    """
    n = len(images)
    target = tuple(images)
    swaps = [(a, b, w[a][b]) for a in range(n) for b in range(a + 1, n) if w[a][b] != INF]
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for a, b, c in swaps:
            v = list(u)
            v[a], v[b] = v[b], v[a]
            v = tuple(v)
            nd = du + c
            if nd < dist.get(v, INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist.get(target, INF)


def sweep_rows(kmin: int, kmax: int, trials: int, seed: int) -> list[tuple[int, int, float, float]]:
    """Mean L of the cycle (1 .. k) over uniform [0, 1) tables, raw and optimized.

    Trial t of size k draws its table from random.Random(seed * 1000003 +
    k * 10007 + t), pairs (a, b) with a < b in lexicographic order.
    """
    rows = []
    for k in range(kmin, kmax + 1):
        labels = list(range(1, k + 1))
        raw_sum = opt_sum = 0.0
        for t in range(trials):
            rng = random.Random(seed * 1_000_003 + k * 10_007 + t)
            w = [[INF] * k for _ in range(k)]
            for a in range(k):
                w[a][a] = 0
                for b in range(a + 1, k):
                    w[a][b] = w[b][a] = rng.random()
            raw_sum += interval_dp(labels, w)
            opt_sum += interval_dp(labels, phi_star(w))
        rows.append((k, trials, raw_sum / trials, opt_sum / trials))
    return rows
