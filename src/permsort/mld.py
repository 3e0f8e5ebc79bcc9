"""Low-cost decompositions of a single cycle.

A minimum length decomposition (MLD) of a k-cycle uses exactly k-1
transpositions; drawn as a graph on the cycle's elements arranged in cycle
order around a circle, those transpositions always form a spanning tree
with no two chords crossing, and conversely every non-crossing spanning
tree yields an MLD whose cost is the sum of its edges. That makes the
cheapest MLD an interval problem: writing the cycle as positions 1..k,

    C(i, j) = min over i <= s < r <= j of
              C(i, s) + C(s+1, r) + C(r, j) + phi(i, r)

where C(i, j) is the cheapest MLD of the contiguous sub-cycle on positions
i..j. The first two terms depend on (i, r) only, so the table is filled
through

    B(i, r) = min over i <= s < r of C(i, s) + C(s+1, r)
    C(i, j) = min over i < r <= j of B(i, r) + C(r, j) + phi(i, r)

in O(k^3) time and O(k^2) memory. The fill keeps values only: ``mld_cost``
returns C(1, k), and ``min_cost_mld`` rebuilds an explicit sequence, finding
the split (s, r) of each interval it visits from C, B and phi in O(k).

``std_decomposition`` is the cheap-and-cheerful alternative: chain the
cycle's consecutive pairs, skipping the most expensive one.

``metric_path_mcd`` handles the one family where the overall optimum is
known exactly: costs that are path distances. It reads every distance off
the defining path's prefix sums and never builds a table. Its spanning
tree, the min-Cartesian tree of the cycle's path positions, costs half the
sum of the per-element distances. That meets the general lower bound, so
the resulting MLD is a true minimum cost decomposition. The tree is an
interval split of the same recurrence, so it is rebuilt by the same
``_rebuild``, in O(k). The lower bound itself lives in ``multicycle``; it
reads distances and never computes a table.

``min_cost_mld``, ``std_decomposition`` and ``metric_path_mcd`` each return
a decomposition and its cost, and raise InfeasibleError when no finite-cost
sequence of their kind exists. A 1-cycle takes the same path as a longer
one and meets the same checks of the table's kind and the cycle's labels;
C(1, 1) = 0, so it comes back with no swaps and an int cost 0.
"""
from __future__ import annotations

from operator import add
from typing import Callable

from .costs import INF, CostMatrix, DefiningPath, Number, tolerance
from .errors import ContractError, InfeasibleError
from .permutation import Cycle, Decomposition, Transposition, validate_decomposition

Edge = tuple[int, int]


def _require_optimized(cycle: Cycle, costs: CostMatrix):
    """An optimized table that holds every label of the cycle."""
    if costs.kind != "optimized":
        raise ValueError(
            "this routine needs optimized costs; optimize the table first "
            "or use assume_optimized() to trust it as is"
        )
    if max(cycle.elements) > costs.n:
        raise ValueError(f"cycle label {max(cycle.elements)} outside 1..{costs.n}")


def _fill(cycle: Cycle, costs: CostMatrix) -> tuple[list[list[Number]], ...]:
    """phi, C by rows and by columns, and B by rows, for one cycle, values only.

    Positions are 1-based: phi[i][r] is the swap cost between positions i
    and r, row[i][t] = C(i, i+t), col[j][t] = C(j-t, j), brow[i][t] =
    B(i, i+1+t). Rows fill from the last up by appending: no per-cell slices.
    """
    _require_optimized(cycle, costs)
    labels = cycle.elements
    k = len(labels)
    phi = [[]] + [[0] + [costs.table[a - 1][b - 1] for b in labels] for a in labels]
    row: list[list[Number]] = [[0] for _ in range(k + 1)]
    col: list[list[Number]] = [[0] for _ in range(k + 1)]
    brow: list[list[Number]] = [[0] for _ in range(k + 1)]    # B(i, i+1) = 0
    for i in range(k - 1, 0, -1):
        ri, bi, pi = row[i], brow[i], phi[i][i + 1:]
        ri.append(pi[0])    # C(i, i+1)
        col[i + 1].append(pi[0])
        for j in range(i + 2, k + 1):
            cj = col[j]    # reversed: C(i+1, j), ..., C(j, j)
            bi.append(min(map(add, ri, reversed(cj))))
            cj.append(min(map(add, map(add, bi, reversed(cj)), pi)))
            ri.append(cj[-1])
    return phi, row, col, brow


def _split(tables: tuple[list[list[Number]], ...], i: int, j: int) -> Edge:
    """(s, r) for a finite C(i, j), j >= i + 2: the smallest r whose
    (B(i, r) + C(r, j)) + phi(i, r) is C(i, j), then the smallest s whose
    ((C(i, s) + C(s+1, r)) + C(r, j)) + phi(i, r) is. Float addition is
    monotone, so the s attaining B(i, r) is one."""
    phi, row, col, brow = tables
    best = row[i][j - i]
    totals = list(map(add, map(add, brow[i], col[j][j - i - 1::-1]), phi[i][i + 1:]))
    r = i + 1 + totals.index(best)
    ri, tail, edge = row[i], col[j][j - r], phi[i][r]
    return next(s for s in range(i, r) if ri[s - i] + row[s + 1][r - s - 1] + tail + edge == best), r


def _rebuild(labels: tuple[int, ...], split: Callable, i: int, j: int) -> list[Transposition]:
    """Positions i..j, each split(i, j) asked for once: (s+1..r), (i r), (r..j), (i..s).
    C(i, j) is finite, and so, its terms being non-negative, is every part of its split."""
    out: list[Transposition] = []
    stack: list[tuple[int, int] | Transposition] = [(i, j)]
    while stack:
        item = stack.pop()
        if isinstance(item, Transposition):
            out.append(item)
            continue
        i, j = item
        if j <= i:
            continue
        if j == i + 1:
            out.append(Transposition(labels[i - 1], labels[j - 1]))
            continue
        s, r = split(i, j)
        stack += [(i, s), (r, j), Transposition(labels[i - 1], labels[r - 1]), (s + 1, r)]
    return out


def _feasible_cost(cycle: Cycle, tables: tuple[list[list[Number]], ...]) -> Number:
    total = tables[1][1][cycle.k - 1]    # C(1, k)
    if total == INF:
        raise InfeasibleError(f"cycle {cycle} admits no finite-cost decomposition")
    return total


def mld_cost(cycle: Cycle, costs: CostMatrix) -> Number:
    """Cost C(1, k) of the cheapest minimum length decomposition, unbuilt.

    Raises InfeasibleError when every spanning tree needs an infinite edge.
    """
    return _feasible_cost(cycle, _fill(cycle, costs))


def min_cost_mld(cycle: Cycle, costs: CostMatrix) -> tuple[Decomposition, Number]:
    """Cheapest minimum length decomposition of one cycle.

    Returns the rebuilt sequence and its cost C(1, k). Raises
    InfeasibleError when every spanning tree needs an infinite edge.
    """
    k = cycle.k
    tables = _fill(cycle, costs)
    total = _feasible_cost(cycle, tables)
    d = Decomposition(tuple(_rebuild(cycle.elements, lambda i, j: _split(tables, i, j), 1, k)))
    _check(d, cycle, expected_len=k - 1)
    return d, total


def std_decomposition(cycle: Cycle, costs: CostMatrix) -> tuple[Decomposition, Number]:
    """Chain of consecutive cycle pairs, skipping the priciest one.

    Cost is the sum of all consecutive pair costs minus the maximum. Raises
    InfeasibleError when a needed edge is infinite. Ties for the skipped
    pair resolve to the last position.
    """
    _require_optimized(cycle, costs)
    labels = cycle.elements
    k = cycle.k
    ring = [costs.table[a - 1][b - 1] for a, b in zip(labels, labels[1:] + labels[:1])]
    skip = max(range(k), key=lambda t: (ring[t], t))
    total: Number = 0
    seq: list[Transposition] = []
    for step in range(1, k):
        t = (skip + step) % k
        if ring[t] == INF:
            raise InfeasibleError(f"cycle {cycle} has an unreachable consecutive pair")
        total += ring[t]
        seq.append(Transposition(labels[t], labels[(t + 1) % k]))
    d = Decomposition(tuple(seq))
    _check(d, cycle, expected_len=k - 1)
    return d, total


def metric_path_mcd(cycle: Cycle, path: DefiningPath) -> tuple[Decomposition, Number]:
    """Exact minimum cost decomposition when costs are distances along ``path``.

    Write the cycle from its element earliest along the path. Its positions,
    keyed by path position, form a min-Cartesian tree: i's parent is the
    later of its nearest earlier-along-the-path neighbours on either side.
    The tree's edges are non-crossing and cost half the sum of the
    per-element distances, the unbeatable floor. Every edge cost is the
    path's own prefix-sum difference, summed in pre-order (parent edge,
    left subtree, right subtree). ``_rebuild`` spells the tree out as one
    split of the interval recurrence per node, O(k) in all.
    """
    k = cycle.k
    if max(cycle.elements) > path.n:
        raise ValueError(f"cycle label {max(cycle.elements)} outside 1..{path.n}")
    pos = path.positions
    first = min(range(k), key=lambda t: pos[cycle.elements[t]])
    labels = cycle.elements[first:] + cycle.elements[:first]
    key = [-1] + [pos[v] for v in labels]    # 1-based; position 1 is the root
    # children in the Cartesian tree (0: none), and nearer[i], the first
    # later position earlier along the path (k + 1: none)
    left, right, nearer = [0] * (k + 1), [0] * (k + 1), [k + 1] * (k + 1)
    stack: list[int] = []
    for i in range(1, k + 1):
        while stack and key[stack[-1]] > key[i]:
            left[i] = stack.pop()
            nearer[left[i]] = i
        if stack:
            right[stack[-1]] = i
        stack.append(i)

    def split(i: int, j: int) -> Edge:
        # i..j holds i and its right subtree, or j and its left subtree;
        # in the second case i hangs from nearer[i], on the way up to j
        if key[i] < key[j]:
            return i, right[i]
        return nearer[i] - 1, nearer[i]

    edge_costs: list[Number] = []
    todo = [(1, right[1])]
    while todo:
        u, v = todo.pop()
        if v:
            edge_costs.append(path.distance(labels[u - 1], labels[v - 1]))
            todo += [(v, right[v]), (v, left[v])]
    tree_cost: Number = sum(edge_costs)
    ring = cycle.elements
    ring_sum: Number = sum(path.distance(ring[t], ring[(t + 1) % k]) for t in range(k))
    if abs(2 * tree_cost - ring_sum) > tolerance(2 * tree_cost, ring_sum):
        raise ContractError("min-Cartesian tree misses the half-total floor")
    d = Decomposition(tuple(_rebuild(labels, split, 1, k)))
    _check(d, cycle, expected_len=k - 1)
    return d, tree_cost


def _check(d: Decomposition, cycle: Cycle, expected_len: int):
    """d has expected_len swaps and multiplies to cycle, in O(k)."""
    if len(d) != expected_len:
        raise ContractError(f"{len(d)} transpositions for a {cycle.k}-cycle")
    if not validate_decomposition(d, cycle):
        raise ContractError(f"decomposition {d} does not multiply to {cycle}")
