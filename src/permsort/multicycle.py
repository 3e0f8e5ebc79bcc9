"""Decomposing arbitrary permutations, cycle by cycle or merged.

Disjoint cycles commute, so a permutation can be decomposed one cycle at a
time and the pieces concatenated. ``decompose`` sums them in one loop over
the cycles: under 'mld' its cost is L, the paper's interval-DP total, and
under 'std' S, the chain total; the identity costs the int 0. Gluing can
help instead: 'merge' joins the cycles into one with cheap transpositions,
whose inverses start its sequence and total, and loops over that one
cycle, whose greater routing freedom can beat the per-cycle total.

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
computes a table.
"""
from __future__ import annotations

from typing import Sequence

from .costs import INF, CostMatrix, DefiningPath, Number, _linker
from .errors import ContractError, InfeasibleError
from .mld import metric_path_mcd, min_cost_mld, std_decomposition
from .permutation import (
    Cycle,
    Decomposition,
    Permutation,
    Transposition,
    _moves,
    nontrivial_cycles,
    validate_decomposition,
)

METHODS = ("mld", "std", "merge", "metric-exact")


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
    halves: Number = 0    # the floor where the plain total passes the largest double
    for c in nontrivial_cycles(p):
        labels = c.elements
        if max(labels) > n:
            raise ValueError(f"cycle label {max(labels)} outside 1..{n}")
        for a, b in zip(labels, labels[1:] + labels[:1]):
            d = distance(a, b)
            if d == INF:
                raise InfeasibleError(f"no finite swap route from {a} to {b}")
            total += d
            halves += d / 2
    return total / 2 if total != INF else halves


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
    # a forced join on the identity fails below, as on any fixed element
    if not moved and not joins:
        raise ValueError("identity permutation: nothing to merge")
    comp: dict[int, int] = {}
    for idx, c in enumerate(moved):
        for e in c.elements:
            comp[e] = idx
    support = sorted(comp)
    link = _linker(len(moved))    # over cycle indices
    applied: list[Transposition] = []

    def bind(a: int, b: int) -> bool:
        if not link(comp[a], comp[b]):
            return False
        applied.append(Transposition(a, b))
        return True

    if joins is not None:
        for a, b in joins:
            if a not in comp or b not in comp:
                raise ValueError(f"join ({a}, {b}) touches a fixed element")
            if not bind(a, b):
                raise ValueError(f"join ({a}, {b}) does not link two separate cycles")
            if phi_star.cost(a, b) == INF:
                raise InfeasibleError(f"join ({a}, {b}) has no finite cost")
        if len(applied) != len(moved) - 1:
            raise ValueError("joins given do not merge all cycles")
    else:
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
    moves = _moves(tau)    # sigma' = tau' * p: p acts first
    merged_cycles = nontrivial_cycles(Permutation(tuple(moves.get(v, v) for v in p.images)))
    if len(merged_cycles) != 1 or set(merged_cycles[0].elements) != set(support):
        raise ContractError("joining product did not produce one cycle over the moved elements")
    return tau, merged_cycles[0]


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
    ``costs`` and reads every distance off it. Only 'merge' takes ``joins``.
    Raises InfeasibleError when a piece is infeasible or the pieces sum past
    the largest double.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick one of {METHODS}")
    # a defining path serves metric-exact, and metric-exact only
    if (method == "metric-exact") != isinstance(costs, DefiningPath):
        raise ValueError("metric-exact needs a defining-path file")
    if joins is not None and method != "merge":
        raise ValueError(f"joins apply to method 'merge' only, not {method!r}")
    cycles = nontrivial_cycles(p)
    seq: list[Transposition] = []
    total: Number = 0
    if method == "merge" and (cycles or joins):
        # the joins' inverses up front, then an MLD of the one merged cycle
        tau, merged = merge_cycles(p, costs, joins)
        seq += reversed(tau.transpositions)
        total = tau.cost(costs)
        cycles = [merged]
    solve = {"std": std_decomposition, "metric-exact": metric_path_mcd}.get(method, min_cost_mld)
    for c in cycles:
        d, piece = solve(c, costs)
        seq += d.transpositions
        total += piece
    out = Decomposition(tuple(seq))
    if not validate_decomposition(out, p):
        kind = "merged" if method == "merge" else "per-cycle"
        raise ContractError(f"{kind} decomposition does not multiply back to the input")
    if total == INF:
        # every piece is finite, so their sum passed the largest double
        raise InfeasibleError("decomposition cost sums past the float range")
    return out, total
