"""Generated-instance properties of the all-pairs engine and the paper's bounds.

Random integer tables with zero and infinite entries, n <= 9. The engine's
phi*, distances and expansions are checked against the reference routes
(the substitution sweep and per-source Bellman-Ford) and against the
2n - 3 length bound of a palindrome along a simple path. For n <= 6 the
exhaustive minimum M of ``mcd_exact`` checks the chain of bounds
lower bound <= sharpened bound <= M <= L <= S <= 4M, the exactness of ``metric-exact`` on path
distances, and its own witnesses.
"""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from permsort import (  # noqa: E402
    INF,
    Decomposition,
    DefiningPath,
    Permutation,
    Transposition,
    bellman_ford,
    cycle_lower_bound,
    decompose,
    expand_transposition,
    from_pairs,
    mcd_exact,
    metric_path,
    nontrivial_cycles,
    optimize_costs,
    permutation_lower_bound,
    sharpened_lower_bound,
    shortest_swaps,
)
from permsort.errors import InfeasibleError  # noqa: E402
from permsort.multicycle import mld_std_totals  # noqa: E402

# deterministic and without an example database, so every run of the suite
# checks the same instances
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def tables(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    costs = draw(st.lists(st.one_of(st.integers(0, 30), st.just(INF)),
                          min_size=len(pairs), max_size=len(pairs)))
    return from_pairs(n, [(a, b, v) for (a, b), v in zip(pairs, costs)])


@st.composite
def tables_and_permutations(draw, max_n=9):
    raw = draw(tables(max_n))
    images = draw(st.permutations(range(1, raw.n + 1)))
    return raw, Permutation(tuple(images))


@st.composite
def paths_and_permutations(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    weights = draw(st.lists(st.integers(0, 9), min_size=n - 1, max_size=n - 1))
    images = draw(st.permutations(range(1, n + 1)))
    return DefiningPath(tuple(order), tuple(weights)), Permutation(tuple(images))


@PROPERTY
@given(tables())
def test_engine_phi_matches_reference_routes(raw):
    star = shortest_swaps(raw).optimized
    assert star.kind == "optimized"
    assert star.table == optimize_costs(raw).optimized.table
    for s in range(1, raw.n + 1):
        d1 = bellman_ford(raw, s).d1
        assert all(star.table[s - 1][v - 1] == d1[v] for v in range(1, raw.n + 1))


def _bellman_ford_floor(p, raw):
    doubled = 0
    for c in nontrivial_cycles(p):
        labels = c.elements
        for a, b in zip(labels, labels[1:] + labels[:1]):
            d2 = bellman_ford(raw, a).d2[b]
            if d2 == INF:
                return INF
            doubled += d2
    return doubled / 4


@PROPERTY
@given(tables_and_permutations())
def test_lower_bound_matches_bellman_ford_route(case):
    raw, p = case
    want = _bellman_ford_floor(p, raw)
    star = shortest_swaps(raw).optimized
    for table in (raw, star):
        if want == INF:
            with pytest.raises(InfeasibleError):
                permutation_lower_bound(p, table)
        else:
            assert permutation_lower_bound(p, table) == want
    per_cycle = [cycle_lower_bound(c, raw) for c in nontrivial_cycles(p)]
    assert sum(per_cycle) == want


@PROPERTY
@given(tables())
def test_expansions_multiply_back_at_optimized_cost(raw):
    n = raw.n
    engine = shortest_swaps(raw)
    star = engine.optimized
    for a, b in star.pairs():
        if star.cost(a, b) == INF:
            with pytest.raises(InfeasibleError):
                expand_transposition(a, b, engine, raw)
            continue
        d = expand_transposition(a, b, engine, raw)
        assert d.product(n) == Decomposition((Transposition(a, b),)).product(n)
        assert d.cost(raw) == star.cost(a, b)
        assert len(d) <= 2 * n - 3


@PROPERTY
@given(tables_and_permutations(max_n=6))
def test_bounds_chain_around_the_exhaustive_minimum(case):
    raw, p = case
    m = mcd_exact(p, raw).min_cost
    if m == INF:
        return
    lb = permutation_lower_bound(p, raw)
    sharp = sharpened_lower_bound(p, raw, lb)
    big_l, big_s = mld_std_totals(p, shortest_swaps(raw).optimized)
    assert lb <= sharp <= m <= big_l <= big_s <= 4 * m


@PROPERTY
@given(paths_and_permutations())
def test_metric_exact_meets_the_exhaustive_minimum(case):
    path, p = case
    metric = metric_path(path)
    report = decompose(p, metric, "metric-exact", defining_path=path)
    assert report.cost == mcd_exact(p, metric).min_cost


@PROPERTY
@given(tables_and_permutations(max_n=6))
def test_exhaustive_witness_multiplies_back_at_its_cost(case):
    raw, p = case
    result = mcd_exact(p, raw)
    if result.min_cost == INF:
        assert result.witness is None
        return
    assert result.witness.product(raw.n) == p
    assert result.witness.cost(raw) == result.min_cost
