"""Exhaustive reference searches that the fast algorithms are checked against."""
import random

import pytest

from permsort import (
    INF,
    Cycle,
    Decomposition,
    InfeasibleError,
    Permutation,
    SizeLimitError,
    all_pairs_optimize,
    from_pairs,
    mcd_exact,
    metric_path,
    min_cost_mld,
    nontrivial_cycles,
    parse_cycles,
    permutation_from_cycles,
    shortest_swaps,
    validate_decomposition,
)
from permsort.costs import DefiningPath

from frozen import OPT4_STAR, dp4_raw, mod5_raw, opt4_raw, random_table
from reference_routes import (
    _noncrossing,
    _trees_with_flags,
    mcd_dijkstra,
    mld_exact_enumeration,
    transposition_min_cost_exact,
)

FIVE_CYCLE = parse_cycles("(1 2 3 4 5)", 5)


def test_exact_search_mod_five():
    witness, m = mcd_exact(FIVE_CYCLE, shortest_swaps(mod5_raw()))
    assert m == 6
    assert str(witness) == "(1 3)(2 4)(1 4)(2 5)(2 4)(3 5)"
    assert validate_decomposition(witness, FIVE_CYCLE)
    assert witness.cost(mod5_raw()) == 6


def test_exact_search_path_distances():
    path = DefiningPath((1, 2, 3, 4, 5), (1, 2, 1, 3))
    assert mcd_exact(FIVE_CYCLE, shortest_swaps(metric_path(path)))[1] == 7


def test_exact_search_four_cycle():
    p = parse_cycles("(1 2 3 4)", 4)
    witness, m = mcd_exact(p, shortest_swaps(dp4_raw()))
    assert m == 8
    assert [t.pair for t in witness] == [(2, 4), (2, 3), (1, 4)]


def test_exact_search_disconnected():
    holes = from_pairs(3, [(1, 2, 1)])
    with pytest.raises(InfeasibleError) as e:
        mcd_exact(parse_cycles("(1 3)", 3), shortest_swaps(holes))
    assert str(e.value) == "target unreachable: some required swap has no finite route"


@pytest.mark.parametrize("raw, cycles", [
    # the floor 1e308 + 1e308 overflows though both terms are finite
    (from_pairs(2, [(1, 2, 1e308)]), "(1 2)"),
    # D(3, 2) = 3e307 + 6e307 + 1e308 overflows though label 2 never visits 3
    (from_pairs(4, [(1, 3, 3e307), (1, 4, 6e307), (2, 4, 1e308)]), "(1 4 2)"),
])
def test_exact_search_near_the_largest_double(raw, cycles):
    p = parse_cycles(cycles, raw.n)
    got_witness, got_m = mcd_exact(p, shortest_swaps(raw))
    m, witness = mcd_dijkstra(p, raw)
    assert m < INF
    assert (got_m, str(got_witness)) == (m, str(witness))


def test_exact_search_random_witnesses():
    rng = random.Random(93)
    for _ in range(25):
        n = rng.randint(2, 5)
        table = random_table(n, rng, lo=1, hi=9)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        witness, m = mcd_exact(p, shortest_swaps(table))
        if p.is_identity():
            assert (witness, m) == (Decomposition(), 0)
            continue
        assert validate_decomposition(witness, p)
        assert witness.cost(table) == m


def test_single_swap_exact_agrees_with_frozen_table():
    raw = opt4_raw()
    got = {pair: transposition_min_cost_exact(*pair, raw) for pair in raw.pairs()}
    assert got == OPT4_STAR


def test_size_limits():
    eight = from_pairs(8, [(1, 2, 1)])
    with pytest.raises(SizeLimitError, match="exceeds the exhaustive-search limit 7"):
        mcd_exact(Permutation(tuple(range(1, 9))), shortest_swaps(eight))
    nine = from_pairs(9, [(1, 2, 1)]).assume_optimized()
    with pytest.raises(SizeLimitError, match="exceeds the exhaustive-search limit 8"):
        mld_exact_enumeration(Cycle(tuple(range(1, 10))), nine)


def test_explicit_limit_override():
    six = from_pairs(6, [(1, 6, 2)])
    p = parse_cycles("(1 6)", 6)
    with pytest.raises(SizeLimitError):
        mcd_exact(p, shortest_swaps(six), limit=5)
    assert mcd_exact(p, shortest_swaps(six), limit=6)[1] == 2


def test_tree_counts():
    expected_noncrossing = {3: 3, 4: 12, 5: 55, 6: 273, 7: 1428}
    for k in range(3, 8):
        trees = _trees_with_flags(k)
        assert len(trees) == k ** (k - 2)
        assert sum(1 for _, flag in trees if flag) == expected_noncrossing[k]
        assert len({edges for edges, _ in trees}) == len(trees)


def test_noncrossing_predicate():
    assert _noncrossing(((1, 2), (2, 3), (3, 4)))
    assert _noncrossing(((1, 4), (1, 2), (2, 3)))
    assert not _noncrossing(((1, 3), (2, 4)))


def test_enumeration_four_cycle():
    p = parse_cycles("(1 2 3 4)", 4)
    star = all_pairs_optimize(dp4_raw())
    e = mld_exact_enumeration(nontrivial_cycles(p)[0], star)
    assert (e.min_cost, e.tree_count, e.noncrossing_count, e.min_cost_any_tree) == (8, 16, 12, 8)
    assert validate_decomposition(e.witness, p)


def test_enumeration_mod_five():
    # crossing trees can be cheaper, they just do not decompose the cycle
    star = all_pairs_optimize(mod5_raw())
    e = mld_exact_enumeration(nontrivial_cycles(FIVE_CYCLE)[0], star)
    assert (e.min_cost, e.tree_count, e.noncrossing_count, e.min_cost_any_tree) == (8, 125, 55, 4)


def test_enumeration_fixed_point():
    e = mld_exact_enumeration(Cycle((3,)), from_pairs(3, [(1, 2, 1)]).assume_optimized())
    assert (e.min_cost, e.tree_count, e.noncrossing_count, e.min_cost_any_tree) == (0, 1, 1, 0)
    assert e.witness.transpositions == ()


def test_enumeration_witnesses_match_dp():
    rng = random.Random(5150)
    for _ in range(25):
        n = rng.randint(2, 6)
        star = all_pairs_optimize(random_table(n, rng))
        k = rng.randint(2, n)
        labels = tuple(rng.sample(range(1, n + 1), k))
        cycle = Cycle(labels)
        e = mld_exact_enumeration(cycle, star)
        assert e.min_cost_any_tree <= e.min_cost
        assert validate_decomposition(e.witness, permutation_from_cycles(n, [cycle]))
        assert e.witness.cost(star) == e.min_cost
        _, dp_cost = min_cost_mld(cycle, star)
        assert dp_cost == e.min_cost
