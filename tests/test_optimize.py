"""phi* from the all-pairs engine against the reference routes, and the
expansion of an optimized swap back into raw swaps.

The substitution sweep ``optimize_costs``, the single-source relaxation
``bellman_ford`` and their expansions live in ``reference_routes`` as test
oracles; the package expands through ``shortest_swaps`` alone.
"""
import random

import pytest

from permsort import (
    INF,
    CostMatrix,
    Decomposition,
    Transposition,
    all_pairs_optimize,
    expand_decomposition,
    expand_transposition,
    from_pairs,
    shortest_swaps,
    validate_decomposition,
)
from permsort.errors import ContractError, InfeasibleError

from frozen import (
    OPT4_STAR,
    RELAX6_D1,
    RELAX6_D2,
    SPARSE5_STAR,
    mod5_raw,
    opt4_raw,
    pairs_dict,
    random_table,
    relax6_raw,
    sparse5_raw,
)
from reference_routes import (
    bellman_ford,
    expand_by_reference,
    floyd_warshall_square,
    optimize_costs,
    product_by_fold,
    recover_path,
    transposition_min_cost_exact,
    transposition_path_cost,
)


def test_substitution_sweep_frozen_tables():
    assert pairs_dict(optimize_costs(opt4_raw()).optimized) == OPT4_STAR
    assert pairs_dict(optimize_costs(sparse5_raw()).optimized) == SPARSE5_STAR
    # mod5 is already at its fixpoint
    assert pairs_dict(optimize_costs(mod5_raw()).optimized) == pairs_dict(mod5_raw())


def test_optimized_table_kind():
    report = optimize_costs(opt4_raw())
    assert report.optimized.kind == "optimized"
    assert all_pairs_optimize(opt4_raw()).kind == "optimized"


def test_witness_records_the_winning_substitution():
    report = optimize_costs(opt4_raw())
    # (1 4) improved through (1 3) doubled around (3 4):
    # third((3 4), (1 3)) = (1 4) at cost 4 + 2*2 = 8
    assert report.witness[(1, 4)] == ((1, 3), (3, 4))
    assert (1, 2) not in report.witness


def test_both_routes_agree_on_frozen_instances():
    for table in (opt4_raw(), sparse5_raw(), mod5_raw(), relax6_raw()):
        assert pairs_dict(optimize_costs(table).optimized) == pairs_dict(all_pairs_optimize(table))


def test_both_routes_agree_on_random_instances():
    rng = random.Random(40)
    for _ in range(60):
        n = rng.randint(2, 9)
        table = random_table(n, rng, inf_share=0.2)
        assert pairs_dict(optimize_costs(table).optimized) == pairs_dict(all_pairs_optimize(table))


def test_optimizing_is_idempotent():
    rng = random.Random(41)
    for _ in range(20):
        table = random_table(rng.randint(2, 7), rng, inf_share=0.15)
        star = all_pairs_optimize(table)
        assert all_pairs_optimize(star).table == star.table
        assert optimize_costs(star).optimized.table == star.table


def test_optimized_never_exceeds_raw_and_satisfies_substitution():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(3, 8)
        table = random_table(n, rng, inf_share=0.1)
        star = all_pairs_optimize(table)
        for a, b, v in table.entries():
            assert star.cost(a, b) <= v
        # no triple can improve any further
        for a, b, _ in star.entries():
            for c in range(1, n + 1):
                if c in (a, b):
                    continue
                assert star.cost(a, b) <= star.cost(a, c) + 2 * star.cost(b, c)
                assert star.cost(a, b) <= star.cost(b, c) + 2 * star.cost(a, c)


def test_relaxation_frozen_tables():
    table = bellman_ford(relax6_raw(), 1)
    assert {v: table.d1[v] for v in range(1, 7)} == RELAX6_D1
    assert {v: table.d2[v] for v in range(1, 7)} == RELAX6_D2


def test_relaxation_path_recovery():
    table = bellman_ford(relax6_raw(), 1)
    assert recover_path(table, 5) == [1, 3, 6, 5]
    assert recover_path(table, 6) == [1, 3, 6]
    assert recover_path(table, 1) == [1]
    # d1 of the endpoint is the swap cost of the recovered path
    for v in range(2, 7):
        path = recover_path(table, v)
        assert transposition_path_cost(path, relax6_raw()) == table.d1[v]


def test_relaxation_guards():
    with pytest.raises(ValueError):
        bellman_ford(relax6_raw(), 0)
    table = bellman_ford(sparse5_raw(), 2)
    assert table.d1[2] == 0 and table.d2[2] == 0
    disconnected = bellman_ford(ring10_disconnected(), 1)
    assert disconnected.d1[4] == INF
    with pytest.raises(InfeasibleError):
        recover_path(disconnected, 4)


def ring10_disconnected():
    from permsort import from_pairs

    # two components: 1-2-3 and 4-5
    return from_pairs(5, [(1, 2, 1), (2, 3, 1), (4, 5, 1)])


def test_triangle_check_reads_the_loops_own_sums():
    # mirrored entries 2**53 and 2.0**53 are equal but not alike, so the
    # table is refused. Alike, the loop compares its own sums: 3 + 2**53 is
    # exact, below 2**53 + 4, so the pair (1, 3) relaxes through 2, where
    # 3 + 2.0**53 rounds to 2**53 + 4, ties, and the table is its own D
    with pytest.raises(ValueError, match=r"^asymmetric entry at \(2, 3\): "):
        CostMatrix(3, ((0, 3, 2**53 + 4), (3, 0, 2**53), (2**53 + 4, 2.0**53, 0)))
    for big, d13, hop in ((2**53, 2**53 + 3, [[0, 1, 1], [0, 1, 2], [1, 1, 2]]),
                          (2.0**53, 2**53 + 4, [[0, 1, 2], [0, 1, 2], [0, 1, 2]])):
        engine = shortest_swaps(CostMatrix(3, ((0, 3, 2**53 + 4), (3, 0, big), (2**53 + 4, big, 0))))
        dist = [[0, 3, d13], [3, 0, big], [d13, big, 0]]
        assert [[(type(v), v) for v in row] for row in engine.dist] == \
            [[(type(v), v) for v in row] for row in dist]
        assert engine.hop == hop


def _tables_at_forty(rng):
    """Dense int 1..100, a random tree plus n pairs, dense uniform [0, 1)
    floats, L1 distances on a 10 x 10 grid, and two components with inf
    between them; n = 40."""
    n = 40
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    sparse = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    while len(sparse) < 2 * n - 1:
        sparse.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    points = [None] + [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(n)]
    labels = rng.sample(range(1, n + 1), n)
    # each half is connected by a chain through its sorted labels
    first, second = sorted(labels[:n // 2]), sorted(labels[n // 2:])
    chains = {*zip(first, first[1:]), *zip(second, second[1:])}

    def l1(a, b):
        return abs(points[a][0] - points[b][0]) + abs(points[a][1] - points[b][1])

    return [
        from_pairs(n, [(a, b, rng.randint(1, 100)) for a, b in pairs]),
        from_pairs(n, [(a, b, rng.randint(1, 100)) for a, b in sorted(sparse)]),
        from_pairs(n, [(a, b, rng.random()) for a, b in pairs]),
        from_pairs(n, [(a, b, l1(a, b)) for a, b in pairs]),
        from_pairs(n, [(a, b, rng.randint(1, 100)) for a, b in pairs
                       if (a, b) in chains or (a in first) == (b in first) and rng.random() < 0.3]),
    ]


def test_engine_equals_the_square_loop_at_forty_labels():
    # the properties stop at n = 9; these tables are large enough for long
    # detours, many improvements per step and, on the grid, many ties
    for raw in _tables_at_forty(random.Random(40)):
        engine = shortest_swaps(raw)
        dist, hop = floyd_warshall_square(raw)
        assert [[(type(v), v) for v in row] for row in engine.dist] == \
            [[(type(v), v) for v in row] for row in dist]
        assert engine.hop == hop


def test_d1_never_exceeds_d2():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 8)
        table = random_table(n, rng, inf_share=0.25)
        for s in range(1, n + 1):
            t = bellman_ford(table, s)
            for v in range(1, n + 1):
                assert t.d1[v] <= t.d2[v]


def test_swap_path_cost():
    m = opt4_raw()
    assert transposition_path_cost([1, 3, 4], m) == 2 * 6 - 4
    assert transposition_path_cost([1, 4], m) == 12
    assert transposition_path_cost([1, 2, 4], m) == 2 * 22 - 15
    # any infinite edge sinks the whole path
    from frozen import ring10_raw
    assert transposition_path_cost([1, 3, 4], ring10_raw()) == INF
    with pytest.raises(ValueError):
        transposition_path_cost([1], m)


def test_expand_transposition_via_witnesses():
    report = optimize_costs(opt4_raw())
    d = expand_by_reference(1, 4, report, opt4_raw())
    assert [(t.a, t.b) for t in d] == [(3, 4), (1, 3), (3, 4)]
    assert d.cost(opt4_raw()) == 8
    # an unimproved pair expands to itself
    plain = expand_by_reference(1, 2, report, opt4_raw())
    assert [(t.a, t.b) for t in plain] == [(1, 2)]


def test_expand_transposition_via_path_table():
    raw = sparse5_raw()
    table = bellman_ford(raw, 4)
    # path 4-2-5; the earliest maximum edge (4 2) becomes the single-use centre
    d = expand_by_reference(4, 5, table, raw)
    assert [(t.a, t.b) for t in d] == [(2, 5), (2, 4), (2, 5)]
    assert d.cost(raw) == 3
    # the witness route spells the same swap differently at the same cost
    report = optimize_costs(raw)
    w = expand_by_reference(4, 5, report, raw)
    assert [(t.a, t.b) for t in w] == [(2, 4), (2, 5), (2, 4)]
    assert w.cost(raw) == 3


def test_expansions_are_odd_valid_and_cost_equal():
    rng = random.Random(44)
    for _ in range(30):
        n = rng.randint(2, 7)
        raw = random_table(n, rng, inf_share=0.2)
        report = optimize_costs(raw)
        engine = shortest_swaps(raw)
        star = report.optimized
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                if star.cost(a, b) == INF:
                    with pytest.raises(InfeasibleError):
                        expand_by_reference(a, b, report, raw)
                    with pytest.raises(InfeasibleError):
                        expand_transposition(a, b, engine)
                    continue
                via_witness = expand_by_reference(a, b, report, raw)
                via_table = expand_by_reference(a, b, bellman_ford(raw, a), raw)
                via_engine = expand_transposition(a, b, engine)
                target = product_by_fold(Decomposition((Transposition(a, b),)), n)
                for d in (via_witness, via_table, via_engine):
                    assert len(d) % 2 == 1
                    assert validate_decomposition(d, target)
                # the constructions may differ but must tie on cost
                assert via_witness.cost(raw) == via_table.cost(raw) == star.cost(a, b)
                assert via_engine.cost(raw) == star.cost(a, b)


def test_expand_against_exhaustive_minimum():
    # the optimized entry is the true minimum over all decompositions
    rng = random.Random(45)
    for _ in range(10):
        n = rng.randint(2, 5)
        raw = random_table(n, rng, inf_share=0.2, hi=20)
        star = optimize_costs(raw).optimized
        for a, b, _ in star.entries():
            assert star.cost(a, b) == transposition_min_cost_exact(a, b, raw)


def test_expand_decomposition_preserves_product():
    raw = sparse5_raw()
    engine = shortest_swaps(raw)
    d = Decomposition((Transposition(4, 5), Transposition(2, 3)))
    wide = expand_decomposition(d, engine)
    assert product_by_fold(wide, 5) == product_by_fold(d, 5)
    assert wide.cost(raw) == engine.optimized.cost(4, 5) + engine.optimized.cost(2, 3)


def test_expand_guards():
    report = optimize_costs(opt4_raw())
    with pytest.raises(ValueError):
        expand_by_reference(2, 2, report, opt4_raw())
    table = bellman_ford(opt4_raw(), 1)
    with pytest.raises(ValueError):
        expand_by_reference(2, 3, table, opt4_raw())
    with pytest.raises(TypeError):
        expand_by_reference(1, 2, "nope", opt4_raw())
    with pytest.raises(ValueError):
        expand_transposition(2, 2, shortest_swaps(opt4_raw()))


def test_path_and_route_refuse_labels_outside_the_table():
    # label 0 would read label n's row through index -1, and n + 1 no row
    engine = shortest_swaps(from_pairs(3, [(1, 2, 1), (2, 3, 1), (1, 3, 5)]))
    for a, b in ((0, 2), (-1, 2), (2, 0), (4, 1), (1, 4)):
        with pytest.raises(ValueError, match=rf"^pair \({a}, {b}\) outside 1..3$"):
            engine.path(a, b)
        with pytest.raises(ValueError, match=rf"^pair \({a}, {b}\) outside 1..3$"):
            engine.route(a, b)
    assert engine.path(2, 2) == [2]
    with pytest.raises(ValueError, match=r"^cost of a trivial swap \(2, 2\) requested$"):
        engine.route(2, 2)
    assert engine.route(1, 3) == [1, 2, 3]
