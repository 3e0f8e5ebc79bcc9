"""Generated-instance properties of the all-pairs engine.

Random integer tables with zero and infinite entries, n <= 9. The engine's
phi*, distances and expansions are checked against the reference routes
(the substitution sweep and per-source Bellman-Ford) and against the
2n - 3 length bound of a palindrome along a simple path.
"""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from permsort import (  # noqa: E402
    INF,
    Decomposition,
    Permutation,
    Transposition,
    bellman_ford,
    cycle_lower_bound,
    expand_transposition,
    from_pairs,
    nontrivial_cycles,
    optimize_costs,
    permutation_lower_bound,
    shortest_swaps,
)
from permsort.errors import InfeasibleError  # noqa: E402

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
def tables_and_permutations(draw):
    raw = draw(tables())
    images = draw(st.permutations(range(1, raw.n + 1)))
    return raw, Permutation(tuple(images))


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
