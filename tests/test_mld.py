"""Interval DP, chain decomposition, bounds and tree conversions."""
import random

import pytest

from permsort import (
    Cycle,
    Decomposition,
    DefiningPath,
    Transposition,
    all_pairs_optimize,
    from_pairs,
    metric_path,
    metric_path_mcd,
    min_cost_mld,
    permutation_from_cycles,
    permutation_lower_bound,
    shortest_swaps,
    std_decomposition,
    validate_decomposition,
)
from permsort.errors import ContractError, InfeasibleError
from permsort.mld import _rebuild, mld_cost

from frozen import (
    DP4_C,
    DP4_SPLITS,
    DP4_STAR,
    dp4_raw,
    mod5_raw,
    pairs_dict,
    random_table,
    ring10_raw,
    sparse5_raw,
)
from reference_routes import mld_exact_enumeration, mld_table, tree_decomposition


def optimized(table):
    return all_pairs_optimize(table)


def cycle_floor(cycle, table):
    # the permutation lower bound of one cycle, over the table's distances
    p = permutation_from_cycles(table.n, [cycle])
    return permutation_lower_bound(p, shortest_swaps(table).dist)


def test_dp4_interval_table():
    star = optimized(dp4_raw())
    assert pairs_dict(star) == DP4_STAR
    table = mld_table(Cycle((1, 2, 3, 4)), star)
    got_c = {(i, j): table.interval_cost(i, j) for i in range(1, 4) for j in range(i + 1, 5)}
    assert got_c == DP4_C
    got_splits = {(i, j): table.split[i][j]
                  for i in range(1, 4) for j in range(i + 2, 5)}
    assert got_splits == DP4_SPLITS


def test_dp4_reconstruction():
    star = optimized(dp4_raw())
    d, cost = min_cost_mld(Cycle((1, 2, 3, 4)), star)
    assert cost == 8
    assert [(t.a, t.b) for t in d] == [(2, 4), (2, 3), (1, 4)]
    assert validate_decomposition(d, permutation_from_cycles(4, [(1, 2, 3, 4)]))
    assert d.cost(star) == 8


def test_dp_requires_an_optimized_table():
    with pytest.raises(ValueError):
        min_cost_mld(Cycle((1, 2, 3)), dp4_raw())
    with pytest.raises(ValueError):
        std_decomposition(Cycle((1, 2, 3)), dp4_raw())


def test_dp_tiny_cycles():
    star = optimized(dp4_raw())
    d, cost = min_cost_mld(Cycle((3,)), star)
    assert len(d) == 0 and cost == 0
    with pytest.raises(ValueError, match="needs optimized costs"):
        min_cost_mld(Cycle((3,)), dp4_raw())
    d, cost = min_cost_mld(Cycle((2, 4)), star)
    assert [(t.a, t.b) for t in d] == [(2, 4)] and cost == 3
    with pytest.raises(ValueError):
        min_cost_mld(Cycle((1, 5)), star)


def test_mld_cost_matches_the_rebuilt_cost():
    star = optimized(dp4_raw())
    assert mld_cost(Cycle((1, 2, 3, 4)), star) == 8
    assert mld_cost(Cycle((3,)), star) == 0
    with pytest.raises(ValueError, match="needs optimized costs"):
        mld_cost(Cycle((3,)), dp4_raw())
    gap = from_pairs(4, [(1, 2, 1), (3, 4, 1)]).assume_optimized()
    with pytest.raises(InfeasibleError):
        mld_cost(Cycle((1, 2, 3, 4)), gap)
    with pytest.raises(ValueError):
        mld_cost(Cycle((1, 2, 3)), dp4_raw())


def test_rebuild_follows_a_deep_split_chain():
    # splitting every interval (i, k) at s = i, r = k rebuilds the star
    # around position k through k - 2 nested intervals, past Python's
    # default recursion limit
    k = 1500
    split = tuple((None,) * k + ((i, k),) for i in range(k + 1))
    cyc = Cycle(tuple(range(1, k + 1)))
    seq = _rebuild(cyc.elements, lambda i, j: split[i][j])
    assert len(seq) == k - 1
    assert [(t.a, t.b) for t in seq[:2]] == [(k - 1, k), (k - 2, k)]
    assert validate_decomposition(Decomposition(tuple(seq)), permutation_from_cycles(k, [cyc]))


def test_dp_tie_break_prefers_small_r_then_small_s():
    # all-equal costs make every split optimal; the scan order must pick
    # r = i + 1, s = i every time, which unrolls to the consecutive chain
    star = from_pairs(4, [(a, b, 1) for a in range(1, 5) for b in range(a + 1, 5)]).assume_optimized()
    table = mld_table(Cycle((1, 2, 3, 4)), star)
    assert table.split[1][4] == (1, 2)
    d, cost = min_cost_mld(Cycle((1, 2, 3, 4)), star)
    assert cost == 3
    assert [(t.a, t.b) for t in d] == [(1, 2), (2, 3), (3, 4)]


def test_sparse5_decompositions():
    star = sparse5_raw().assume_optimized()
    opt = optimized(sparse5_raw())
    # sweeping the raw table reaches the printed fixpoint
    assert pairs_dict(opt) == {
        (2, 4): 1, (2, 5): 1, (3, 5): 1, (2, 3): 3, (4, 5): 3, (3, 4): 5,
        (1, 2): 100, (1, 3): 100, (1, 4): 100, (1, 5): 100,
    }
    del star
    d, cost = min_cost_mld(Cycle((1, 2, 3, 4, 5)), opt)
    assert cost == 105
    assert sorted(opt.cost(t.a, t.b) for t in d) == [1, 1, 3, 100]
    assert len(d) == 4
    std, std_cost = std_decomposition(Cycle((1, 2, 3, 4, 5)), opt)
    assert std_cost == 111
    assert [(t.a, t.b) for t in std] == [(1, 2), (2, 3), (3, 4), (4, 5)]


def test_std_skips_the_last_of_tied_maxima():
    # ring costs (1,2)=100, ..., (5,1)=100: positions 0 and 4 tie; the skip
    # lands on 4, so the chain starts at the pair (1 2)
    opt = optimized(sparse5_raw())
    d, _ = std_decomposition(Cycle((1, 2, 3, 4, 5)), opt)
    assert d.transpositions[0] == Transposition(1, 2)


def test_std_reports_unreachable_chains():
    table = from_pairs(4, [(1, 2, 1), (3, 4, 1)]).assume_optimized()
    with pytest.raises(InfeasibleError, match=r"^cycle \(1 2 3 4\) has an unreachable consecutive pair$"):
        std_decomposition(Cycle((1, 2, 3, 4)), table)


def test_std_single_label():
    opt = optimized(sparse5_raw())
    d, cost = std_decomposition(Cycle((2,)), opt)
    assert len(d) == 0 and cost == 0
    with pytest.raises(ValueError, match="needs optimized costs"):
        std_decomposition(Cycle((2,)), sparse5_raw())


def test_ring10_cycle_quantities():
    star = optimized(ring10_raw())
    # closed form on the ring: twice the hop distance minus one
    from frozen import ring10_distance
    for a, b, _ in star.entries():
        assert star.cost(a, b) == 2 * ring10_distance(a, b) - 1
    c = Cycle((1, 7, 3, 9, 5))
    mld, mld_cost = min_cost_mld(c, star)
    std, std_cost = std_decomposition(c, star)
    assert mld_cost == 20
    assert std_cost == 28
    assert cycle_floor(c, star) == 10
    assert validate_decomposition(mld, permutation_from_cycles(10, [c]))
    assert validate_decomposition(std, permutation_from_cycles(10, [c]))


def test_cycle_lower_bound_values():
    assert cycle_floor(Cycle((1, 2, 3, 4, 5)), sparse5_raw()) == 103.5
    # same number on the optimized table
    assert cycle_floor(Cycle((1, 2, 3, 4, 5)), optimized(sparse5_raw())) == 103.5
    assert cycle_floor(Cycle((3,)), sparse5_raw()) == 0.0
    gap = from_pairs(4, [(1, 2, 1), (3, 4, 1)])
    with pytest.raises(InfeasibleError):
        cycle_floor(Cycle((1, 2, 3, 4)), gap)


def test_dp_beats_nothing_below_the_lower_bound():
    rng = random.Random(50)
    for _ in range(40):
        k = rng.randint(2, 6)
        table = random_table(k, rng, inf_share=0.1, hi=30)
        star = optimized(table)
        cyc = Cycle(tuple(range(1, k + 1)))
        try:
            _, cost = min_cost_mld(cyc, star)
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                cycle_floor(cyc, table)
            continue
        lb = cycle_floor(cyc, table)
        _, std_cost = std_decomposition(cyc, star)
        assert lb <= cost <= std_cost


def test_dp_matches_enumeration_on_random_tables():
    rng = random.Random(51)
    for _ in range(30):
        k = rng.randint(2, 6)
        star = random_table(k, rng, hi=50).assume_optimized()
        cyc = Cycle(tuple(range(1, k + 1)))
        d, cost = min_cost_mld(cyc, star)
        enum = mld_exact_enumeration(cyc, star)
        assert cost == enum.min_cost
        assert enum.min_cost_any_tree <= cost


def test_dp_is_monotone_in_the_table():
    rng = random.Random(52)
    for _ in range(20):
        k = rng.randint(2, 6)
        table = random_table(k, rng, hi=40)
        cheaper = from_pairs(
            k, [(a, b, max(0, v - rng.randint(0, 5))) for a, b, v in table.entries()]
        )
        cyc = Cycle(tuple(range(1, k + 1)))
        _, c1 = min_cost_mld(cyc, table.assume_optimized())
        _, c2 = min_cost_mld(cyc, cheaper.assume_optimized())
        assert c2 <= c1


def test_tree_decomposition_star_and_path():
    cyc = Cycle((1, 2, 3, 4))
    fan = tree_decomposition(cyc, [(1, 2), (1, 3), (1, 4)])
    assert validate_decomposition(fan, permutation_from_cycles(4, [cyc]))
    chain = tree_decomposition(cyc, [(1, 2), (2, 3), (3, 4)])
    assert validate_decomposition(chain, permutation_from_cycles(4, [cyc]))


def test_tree_decomposition_rejects_bad_trees():
    cyc = Cycle((1, 2, 3, 4))
    # (1 3) and (2 4) cross on the circle
    with pytest.raises(ContractError):
        tree_decomposition(cyc, [(1, 3), (2, 4), (1, 2)])
    with pytest.raises(ValueError):
        tree_decomposition(cyc, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        tree_decomposition(cyc, [(1, 2), (2, 3), (4, 5)])


def test_tree_decomposition_random_noncrossing_trees():
    # every non-crossing tree must convert to a valid shortest decomposition
    rng = random.Random(53)
    for _ in range(25):
        k = rng.randint(2, 7)
        labels = rng.sample(range(1, 10), k)
        cyc = Cycle(tuple(labels))
        enum = mld_exact_enumeration(cyc, random_table(9, rng, hi=9).assume_optimized())
        assert enum.witness is not None
        assert validate_decomposition(enum.witness, permutation_from_cycles(9, [cyc]))


def test_metric_path_mcd_frozen():
    path = DefiningPath((1, 2, 3, 4, 5), (1, 2, 1, 3))
    table = metric_path(path)
    d, cost = metric_path_mcd(Cycle((1, 2, 3, 4, 5)), path)
    assert cost == 7
    assert validate_decomposition(d, permutation_from_cycles(5, [(1, 2, 3, 4, 5)]))
    # half the ring sum: (1+2+1+3+7) / 2
    assert cost == cycle_floor(Cycle((1, 2, 3, 4, 5)), table)
    # a 1-cycle takes the same path, label check included
    assert metric_path_mcd(Cycle((3,)), path) == (Decomposition(), 0)
    with pytest.raises(ValueError, match=r"^cycle label 7 outside 1\.\.3$"):
        metric_path_mcd(Cycle((7,)), DefiningPath((1, 2, 3), (1, 1)))


def test_metric_path_mcd_long_cycle_needs_no_recursion():
    # the segment tree and its conversion nest about k deep here, past
    # Python's default recursion limit
    n = 1100
    path = DefiningPath(tuple(range(1, n + 1)), (1,) * (n - 1))
    cyc = Cycle(tuple(range(1, n + 1)))
    d, cost = metric_path_mcd(cyc, path)
    assert cost == n - 1
    assert len(d) == n - 1
    assert validate_decomposition(d, permutation_from_cycles(n, [cyc]))


def test_metric_path_mcd_float_weights_meet_the_floor():
    # twice the tree sum is 5.3999999999999995 and the ring sum 5.4, so an
    # exact comparison would reject the optimal tree
    path = DefiningPath((3, 4, 5, 1, 2), (0.7, 0.7, 0.7, 0.6))
    table = metric_path(path)
    cyc = Cycle((1, 2, 3, 4, 5))
    d, cost = metric_path_mcd(cyc, path)
    assert validate_decomposition(d, permutation_from_cycles(5, [cyc]))
    assert cost == pytest.approx(cycle_floor(cyc, table))


def test_metric_path_mcd_floor_gap_shows_in_several_ring_orders():
    # twice the tree sum is 3.1999999999999997, and the ring sums to 3.2 from
    # its smallest label, from its path-earliest label and reversed, so the
    # tolerance is needed whichever of those orders the ring is added in
    path = DefiningPath((4, 3, 1, 2), (0.7, 0.7, 0.2))
    cyc = Cycle((1, 3, 4, 2))
    d, cost = metric_path_mcd(cyc, path)
    assert validate_decomposition(d, permutation_from_cycles(4, [cyc]))
    assert cost == pytest.approx(cycle_floor(cyc, metric_path(path)))


def test_metric_path_mcd_random_orders():
    rng = random.Random(54)
    for _ in range(30):
        n = rng.randint(2, 7)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        path = DefiningPath(tuple(order), tuple(rng.randint(1, 9) for _ in range(n - 1)))
        table = metric_path(path)
        k = rng.randint(2, n)
        cyc = Cycle(tuple(rng.sample(range(1, n + 1), k)))
        d, cost = metric_path_mcd(cyc, path)
        assert validate_decomposition(d, permutation_from_cycles(n, [cyc]))
        assert cost == cycle_floor(cyc, table)
        # the DP on the same table can do no better than the exact floor
        _, dp_cost = min_cost_mld(cyc, optimized(table))
        assert dp_cost == cost
