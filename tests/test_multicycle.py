"""Whole-permutation strategies, per-cycle and merged, and the bounds around them."""
import math
import random

import pytest

from permsort import (
    Decomposition,
    DefiningPath,
    InfeasibleError,
    Permutation,
    Transposition,
    all_pairs_optimize,
    decompose,
    from_pairs,
    merge_cycles,
    metric_path,
    nontrivial_cycles,
    parse_cycles,
    parse_one_line,
    permutation_lower_bound,
    shortest_swaps,
    validate_decomposition,
)
from permsort.mld import mld_cost

from frozen import RING10_IMAGES, random_table, ring10_raw, sparse5_raw
from reference_routes import _attainable, sharpened_lower_bound

FIVE_CYCLE = parse_cycles("(1 2 3 4 5)", 5)
TWO_RINGS = Permutation(RING10_IMAGES)


def complete(n, v):
    return from_pairs(n, [(a, b, v) for a in range(1, n + 1) for b in range(a + 1, n + 1)])


def test_lower_bound_two_rings():
    raw = ring10_raw()
    assert permutation_lower_bound(TWO_RINGS, shortest_swaps(raw).dist) == 20.0
    # optimizing first must not move the bound
    assert permutation_lower_bound(TWO_RINGS, shortest_swaps(all_pairs_optimize(raw)).dist) == 20.0


def test_lower_bound_five_cycle():
    assert permutation_lower_bound(FIVE_CYCLE, shortest_swaps(sparse5_raw()).dist) == 103.5


def test_lower_bound_disconnected():
    holes = from_pairs(4, [(1, 2, 1), (3, 4, 1)])
    with pytest.raises(InfeasibleError, match="from 1 to 3"):
        permutation_lower_bound(parse_cycles("(1 3)", 4), shortest_swaps(holes).dist)


def test_merge_greedy_two_rings():
    star = all_pairs_optimize(ring10_raw())
    tau, merged = merge_cycles(TWO_RINGS, star)
    assert [(t.a, t.b) for t in tau] == [(1, 2)]
    assert merged.k == 10
    assert set(merged.elements) == set(range(1, 11))


def test_merge_explicit_joins_match_greedy():
    star = all_pairs_optimize(ring10_raw())
    assert merge_cycles(TWO_RINGS, star, [(1, 2)]) == merge_cycles(TWO_RINGS, star)


def test_merge_join_errors():
    p = Permutation((2, 1, 4, 3, 5))
    star = all_pairs_optimize(complete(5, 1))
    with pytest.raises(ValueError, match="touches a fixed element"):
        merge_cycles(p, star, [(1, 5)])
    with pytest.raises(ValueError, match="does not link two separate cycles"):
        merge_cycles(p, star, [(1, 2)])
    with pytest.raises(ValueError, match="do not merge all cycles"):
        merge_cycles(p, star, [])


def test_merge_single_cycle_is_noop():
    star = all_pairs_optimize(complete(5, 1))
    tau, merged = merge_cycles(FIVE_CYCLE, star)
    assert tau.transpositions == ()
    assert merged == nontrivial_cycles(FIVE_CYCLE)[0]


def test_merge_identity_rejected():
    star = all_pairs_optimize(complete(3, 1))
    with pytest.raises(ValueError, match="nothing to merge"):
        merge_cycles(Permutation((1, 2, 3)), star)
    # a forced join is checked first, as on any other fixed element
    with pytest.raises(ValueError, match=r"^join \(1, 2\) touches a fixed element$"):
        merge_cycles(Permutation((1, 2, 3)), star, [(1, 2)])


def test_merged_decompose_two_rings():
    engine = shortest_swaps(ring10_raw())
    d, cost = decompose(TWO_RINGS, engine.optimized, "merge")
    assert cost == 38  # one join at 1 plus a length-10 chain at 37
    lower_bound = permutation_lower_bound(TWO_RINGS, engine.dist)
    assert lower_bound == 20.0
    assert cost / lower_bound == 1.9
    assert validate_decomposition(d, TWO_RINGS)
    # first written factor is the join's inverse, which is the join itself
    assert d.transpositions[0] == Transposition(1, 2)


def test_decompose_identity_every_method():
    p = Permutation((1, 2, 3))
    engine = shortest_swaps(complete(3, 1))
    for method in ("mld", "std", "merge"):
        d, cost = decompose(p, engine.optimized, method)
        assert d == Decomposition()
        assert cost == 0
        assert permutation_lower_bound(p, engine.dist) == 0.0


def test_decompose_takes_joins_under_merge_only():
    engine = shortest_swaps(complete(3, 1))
    swap = parse_one_line("2 1 3")
    for method in ("mld", "std"):
        with pytest.raises(ValueError, match=f"^joins apply to method 'merge' only, not '{method}'$"):
            decompose(swap, engine.optimized, method, joins=[(5, 9)])
    # the identity takes no shortcut past forced joins
    with pytest.raises(ValueError, match=r"^join \(1, 2\) touches a fixed element$"):
        decompose(Permutation((1, 2, 3)), engine.optimized, "merge", joins=[(1, 2)])


def test_decompose_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown method 'greedy'"):
        decompose(FIVE_CYCLE, all_pairs_optimize(complete(5, 1)), "greedy")


def test_decompose_metric_exact_needs_path():
    star = all_pairs_optimize(complete(5, 1))
    # checked before the identity shortcut, so the identity is refused too
    for p in (FIVE_CYCLE, Permutation((1, 2, 3, 4, 5))):
        with pytest.raises(ValueError, match="^metric-exact needs a defining-path file$"):
            decompose(p, star, "metric-exact")


def test_decompose_std_unreachable():
    holes = from_pairs(4, [(1, 2, 1)]).assume_optimized()
    with pytest.raises(InfeasibleError, match="unreachable consecutive pair"):
        decompose(parse_cycles("(1 2 3 4)", 4), holes, "std")


def test_decompose_frozen_costs():
    ring_star = all_pairs_optimize(ring10_raw())
    assert decompose(TWO_RINGS, ring_star, "mld")[1] == 40
    assert decompose(TWO_RINGS, ring_star, "std")[1] == 56
    assert decompose(TWO_RINGS, ring_star, "merge")[1] == 38
    sparse_star = all_pairs_optimize(sparse5_raw())
    assert decompose(FIVE_CYCLE, sparse_star, "mld")[1] == 105
    assert decompose(FIVE_CYCLE, sparse_star, "std")[1] == 111


def test_decompose_metric_exact_path():
    path = DefiningPath((1, 2, 3, 4, 5), (1, 2, 1, 3))
    table = metric_path(path)
    d, cost = decompose(FIVE_CYCLE, path, "metric-exact")
    assert cost == 7
    # a path metric is its own distance table, and the path reads the same
    lower_bound = permutation_lower_bound(FIVE_CYCLE, table.table)
    assert lower_bound == permutation_lower_bound(FIVE_CYCLE, path) == 7.0
    assert cost / lower_bound == 1.0
    assert validate_decomposition(d, FIVE_CYCLE)


def test_attainable():
    # (even count, odd count) of positive values summing to the target
    assert _attainable(0, [2, 3]) == (True, False)
    # 6 out of twos takes exactly three picks
    assert _attainable(6, [2]) == (False, True)
    # odd total from even values is hopeless at either parity
    assert _attainable(7, [2]) == (False, False)
    # 5 = 2 + 3 is the only multiset
    assert _attainable(5, [2, 3]) == (True, False)
    # 104 = 100 + 4 ones (odd count) = 104 ones (even count)
    assert _attainable(104, [1, 100]) == (True, True)
    # zero values are not passed in: with a zero cost in the table a free
    # swap fixes the parity, so the bound is the ceiling. The table is the
    # parity-bump instance below plus a free swap (7 8) off the support.
    t = from_pairs(8, [(a, b, 0 if (a, b) == (7, 8) else 3)
                       for a in range(1, 9) for b in range(a + 1, 9)])
    p = parse_cycles("(1 2 3)(4 5 6)", 8)
    lb = permutation_lower_bound(p, shortest_swaps(t).dist)
    assert lb == 9.0
    assert sharpened_lower_bound(p, t, lb) == 9
    assert sharpened_lower_bound(parse_cycles("()", 8), t, 0.0) == 0


def test_sharpened_lower_bound_frozen():
    sp = sparse5_raw()
    lb = permutation_lower_bound(FIVE_CYCLE, shortest_swaps(sp).dist)
    assert sharpened_lower_bound(FIVE_CYCLE, sp, lb) == 104
    ring = ring10_raw()
    lb = permutation_lower_bound(TWO_RINGS, shortest_swaps(ring).dist)
    assert sharpened_lower_bound(TWO_RINGS, ring, lb) == 20


def test_sharpened_lower_bound_parity_bump():
    # two 3-cycles over a uniform table of threes: the bound lands on 9,
    # but 9 = 3+3+3 forces an odd count while the permutation is even
    t = complete(6, 3)
    p = parse_cycles("(1 2 3)(4 5 6)", 6)
    lb = permutation_lower_bound(p, shortest_swaps(t).dist)
    assert lb == 9.0
    assert sharpened_lower_bound(p, t, lb) == 10


def test_sharpened_lower_bound_non_integer_table():
    t = from_pairs(3, [(1, 2, 1.5), (1, 3, 1.5), (2, 3, 1.5)])
    p = parse_cycles("(1 2 3)", 3)
    assert sharpened_lower_bound(p, t, permutation_lower_bound(p, shortest_swaps(t).dist)) is None


def bounds(p, raw):
    """The floor, its integer sharpening, L, S and the merged cost, from one engine."""
    engine = shortest_swaps(raw)
    lower_bound = permutation_lower_bound(p, engine.dist)
    big_l = decompose(p, engine.optimized, "mld")[1]
    big_s = decompose(p, engine.optimized, "std")[1]
    merged = decompose(p, engine.optimized, "merge")[1]
    return lower_bound, sharpened_lower_bound(p, raw, lower_bound), big_l, big_s, merged


def test_bound_report_two_rings():
    assert bounds(TWO_RINGS, ring10_raw()) == (20.0, 20, 40, 56, 38)


def test_bound_report_five_cycle():
    assert bounds(FIVE_CYCLE, sparse5_raw()) == (103.5, 104, 105, 111, 105)


def test_bound_report_path_certificate():
    # a single cycle over path distances is solved exactly, so the
    # cheapest decomposition meets the sharpened bound
    path = DefiningPath((1, 2, 3, 4, 5), (1, 2, 1, 3))
    assert bounds(FIVE_CYCLE, metric_path(path)) == (7.0, 7, 7, 7, 7)


def test_bound_report_identity():
    assert bounds(Permutation((1, 2, 3, 4)), complete(4, 2)) == (0.0, 0, 0, 0, 0)


def test_bound_report_merge_infeasible_is_inf():
    # the only finite entries keep each 2-cycle decomposable but give no
    # finite way to join them, so merging is infeasible
    raw = from_pairs(4, [(1, 2, 1), (3, 4, 1)])
    p = Permutation((2, 1, 4, 3))
    star = shortest_swaps(raw).optimized
    assert (decompose(p, star, "mld")[1], decompose(p, star, "std")[1]) == (2, 2)
    with pytest.raises(InfeasibleError):
        decompose(p, star, "merge")


def test_random_strategies_respect_bounds():
    rng = random.Random(417)
    for _ in range(30):
        n = rng.randint(2, 7)
        raw = random_table(n, rng)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        lower_bound, sharp, big_l, big_s, merged = bounds(p, raw)
        assert lower_bound <= big_l <= big_s
        assert lower_bound <= merged
        if sharp is not None and not p.is_identity():
            ceil = math.ceil(lower_bound)
            assert ceil <= sharp <= ceil + 1
        star = all_pairs_optimize(raw)
        for method in ("mld", "std", "merge"):
            d, cost = decompose(p, star, method)
            assert validate_decomposition(d, p)
            assert cost == {"mld": big_l, "std": big_s, "merge": merged}[method]
        # the value-only DP that bench reads sums to the same L
        assert sum(mld_cost(c, star) for c in nontrivial_cycles(p)) == big_l
