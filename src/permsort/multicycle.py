"""Decomposing arbitrary permutations, cycle by cycle or merged.

Disjoint cycles commute, so a permutation can be decomposed one cycle at a
time and the pieces concatenated. Sometimes gluing helps instead: joining
the cycles into one big cycle with cheap extra transpositions, decomposing
that, and prepending the joins' inverses can beat the per-cycle total
because the bigger cycle has more routing freedom.

``merge_cycles`` picks the joins by Kruskal's algorithm over phi*: the
swaps between moved elements of different cycles are sorted once by cost,
ties to the smaller pair, and taken in that order whenever they link two
still-separate cycles, unless the caller dictates the joins. If tau' is
the join product then sigma' = tau' * p is a single cycle and

    p = (tau')^-1 * sigma',

so the emitted sequence is the joins in application order followed by an
MLD of sigma'.

``permutation_lower_bound`` is the universal floor: half the summed
shortest-path distances from each moved element to its image. It reads the
distances it is handed, the rows of ``ShortestSwaps.dist`` or a defining
path, whose prefix-sum differences already are shortest, and never
computes a table. ``bound_report`` collects the cost of every strategy next
to that floor, plus the ceiling-sharpened integer variant when every cost
is an integer, all from one ``ShortestSwaps``.
"""
from __future__ import annotations

import math
from typing import Sequence

from .costs import INF, CostMatrix, DefiningPath, Number
from .errors import ContractError, InfeasibleError
from .mld import metric_path_mcd, min_cost_mld, mld_cost, std_decomposition
from .optimize import ShortestSwaps
from .permutation import (
    Cycle,
    Decomposition,
    Permutation,
    Transposition,
    compose,
    cycles,
    nontrivial_cycles,
    validate_decomposition,
)
from .values import Frozen

METHODS = ("mld", "std", "merge", "metric-exact")


class BoundReport(Frozen):
    """Cost of each strategy against the lower bounds (sharpened_lower_bound
    and alpha_worst_case may be None)."""

    __slots__ = _fields = ("permutation", "lower_bound", "sharpened_lower_bound", "mld_cost",
                           "std_cost", "merged_cost", "alpha_worst_case", "m_equals_l")


def permutation_lower_bound(p: Permutation, dist: Sequence[Sequence[Number]] | DefiningPath) -> float:
    """Half the summed distance from each moved element to its image.

    ``dist`` holds 0-based rows of shortest-path distances, or is a
    defining path, read through ``DefiningPath.distance``. Raises
    InfeasibleError when some element cannot reach its image.
    """
    if isinstance(dist, DefiningPath):
        n, distance = dist.n, dist.distance
    else:
        n, distance = len(dist), lambda a, b: dist[a - 1][b - 1]
    total: Number = 0
    for c in nontrivial_cycles(p):
        labels = c.elements
        if max(labels) > n:
            raise ValueError(f"cycle label {max(labels)} outside 1..{n}")
        for a, b in zip(labels, labels[1:] + labels[:1]):
            d = distance(a, b)
            if d == INF:
                raise InfeasibleError(f"no finite swap route from {a} to {b}")
            total += d
    return total / 2


def merge_cycles(
    p: Permutation,
    phi_star: CostMatrix,
    joins: Sequence[tuple[int, int]] | None = None,
) -> tuple[Decomposition, Cycle]:
    """Join all moved cycles of p into a single cycle.

    Returns the joining product tau' (written order) and the merged cycle
    sigma' with tau' * p = sigma'. Greedy choice: cheapest pair linking two
    separate cycles, ties to the smaller pair. Explicit ``joins`` override
    the greedy picks and must each link two separate cycles.
    """
    moved = nontrivial_cycles(p)
    if not moved:
        raise ValueError("identity permutation: nothing to merge")
    comp: dict[int, int] = {}
    for idx, c in enumerate(moved):
        for e in c.elements:
            comp[e] = idx
    support = sorted(comp)
    # union-find over cycle indices: parent[x] == x marks a root
    parent = list(range(len(moved)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    applied: list[Transposition] = []

    def bind(a: int, b: int) -> bool:
        ra, rb = find(comp[a]), find(comp[b])
        if ra == rb:
            return False
        parent[rb] = ra
        applied.append(Transposition(a, b))
        return True

    if joins is not None:
        for a, b in joins:
            if a not in comp or b not in comp:
                raise ValueError(f"join ({a}, {b}) touches a fixed element")
            if not bind(a, b):
                raise ValueError(f"join ({a}, {b}) does not link two separate cycles")
        if len(applied) != len(moved) - 1:
            raise ValueError("joins given do not merge all cycles")
    elif len(moved) > 1:
        if support[-1] > phi_star.n:
            raise ValueError(f"label {support[-1]} outside 1..{phi_star.n}")
        rows = phi_star.table
        links = sorted(
            (rows[a - 1][b - 1], a, b)
            for i, a in enumerate(support)
            for b in support[i + 1:]
            if comp[a] != comp[b]
        )
        for _, a, b in links:
            # the last join leaves no link between two separate cycles
            if bind(a, b) and len(applied) == len(moved) - 1:
                break

    tau = Decomposition(tuple(reversed(applied)))
    merged_cycles = nontrivial_cycles(compose(tau.product(p.n), p))
    if len(merged_cycles) != 1 or set(merged_cycles[0].elements) != set(support):
        raise ContractError("joining product did not produce one cycle over the moved elements")
    return tau, merged_cycles[0]


def merged_decompose(
    p: Permutation,
    phi_star: CostMatrix,
    joins: Sequence[tuple[int, int]] | None = None,
) -> tuple[Decomposition, Number]:
    """Merge the cycles, decompose the merged cycle, undo the joins up front."""
    if p.is_identity():
        return Decomposition(), 0
    tau, merged = merge_cycles(p, phi_star, joins)
    mld, sigma_cost = min_cost_mld(merged, phi_star)
    d = Decomposition(tuple(reversed(tau.transpositions)) + mld.transpositions)
    if not validate_decomposition(d, p):
        raise ContractError("merged decomposition does not multiply back to the input")
    return d, tau.cost(phi_star) + sigma_cost


def decompose(
    p: Permutation,
    costs: CostMatrix | DefiningPath,
    method: str = "mld",
    *,
    joins: Sequence[tuple[int, int]] | None = None,
) -> tuple[Decomposition, Number]:
    """Decompose a permutation with the chosen strategy; returns it and its cost.

    'mld' and 'std' work cycle by cycle on an optimized table, 'merge' glues
    the cycles first, 'metric-exact' takes the defining path itself as
    ``costs`` and reads every distance off it.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
    if p.is_identity():
        return Decomposition(), 0
    if method == "merge":
        return merged_decompose(p, costs, joins)
    if method == "metric-exact" and not isinstance(costs, DefiningPath):
        raise ValueError("metric-exact needs the defining path")

    seq: list[Transposition] = []
    total: Number = 0
    for c in nontrivial_cycles(p):
        if method == "mld":
            d, piece = min_cost_mld(c, costs)
        elif method == "std":
            maybe, piece = std_decomposition(c, costs)
            if maybe is None:
                raise InfeasibleError(f"cycle {c} has an unreachable consecutive pair")
            d = maybe
        else:
            d, piece = metric_path_mcd(c, costs)
        seq.extend(d.transpositions)
        total += piece
    out = Decomposition(tuple(seq))
    if not validate_decomposition(out, p):
        raise ContractError("per-cycle decomposition does not multiply back to the input")
    return out, total


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
    if not raw.all_integer() or lower_bound == INF:
        return None
    target = math.ceil(lower_bound)
    values = raw.finite_values()
    if target == 0 or 0 in values:
        return target    # nothing to hit, or a free swap fixes the parity
    by_parity = _attainable(target, values)
    parity = (p.n - len(cycles(p))) % 2
    if not by_parity[parity] and by_parity[1 - parity]:
        return target + 1
    return target


def mld_std_totals(p: Permutation, phi_star: CostMatrix) -> tuple[Number, Number]:
    """Summed per-cycle costs of the cheapest MLD (L) and of the chain (S)."""
    mld_total: Number = 0
    std_total: Number = 0
    for c in nontrivial_cycles(p):
        mld_total += mld_cost(c, phi_star)
        _, std_piece = std_decomposition(c, phi_star)
        std_total += std_piece
    return mld_total, std_total


def _alpha_worst_case(p: Permutation, raw: CostMatrix) -> float | None:
    k = len(cycles(p))
    n = p.n
    if n == k:
        return None
    values = [v for _, _, v in raw.entries()]
    phi_min = min(values)
    phi_max = max(values)
    if phi_min == 0 or phi_min == INF:
        return None
    return 4 + 5 * k * phi_max / ((n - k) * phi_min)


def bound_report(
    p: Permutation,
    engine: ShortestSwaps,
    joins: Sequence[tuple[int, int]] | None = None,
) -> BoundReport:
    """Compare every strategy against the lower bounds for one permutation.

    The raw table, phi* and the distances all come from ``engine``.
    """
    if p.is_identity():
        return BoundReport(p, 0.0, 0, 0, 0, 0, None, True)
    raw = engine.raw
    phi_star = engine.optimized
    lb = permutation_lower_bound(p, engine.dist)
    sharp = sharpened_lower_bound(p, raw, lb)

    mld_total, std_total = mld_std_totals(p, phi_star)
    try:
        _, merged_cost = merged_decompose(p, phi_star, joins)
    except InfeasibleError:
        merged_cost = INF

    certificate = sharp is not None and mld_total == sharp
    return BoundReport(
        p, lb, sharp, mld_total, std_total, merged_cost,
        _alpha_worst_case(p, raw), certificate,
    )
