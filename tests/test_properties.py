"""Generated-instance properties of the all-pairs engine and the paper's bounds.

Random integer tables with zero and infinite entries, n <= 9. The engine's
phi*, distances and expansions are checked against the reference routes in
``reference_routes`` (the substitution sweep ``optimize_costs`` and the
per-source ``bellman_ford``) and against the 2n - 3 length bound of a
palindrome along a simple path. For n <= 6 the exhaustive minimum M of
``mcd_exact`` checks the chain of bounds lower bound <= sharpened bound <=
M <= L <= S <= 4M, its own witnesses, the exactness of ``metric-exact`` on
path distances and L <= 2M on adjacent-only paths. The interval DP, the
cycle merge and the transposition product must equal their straightforward
routes in ``reference_routes`` exactly, floats and ties included. Cost
files, path files, one-line and cycle notation must read back what was
written, and every table builder's output must pass the full
``CostMatrix`` check it skips.
"""
import sys
from itertools import accumulate

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from permsort import (  # noqa: E402
    INF,
    CostMatrix,
    Cycle,
    Decomposition,
    DefiningPath,
    Permutation,
    Transposition,
    all_pairs_optimize,
    cycles,
    decompose,
    expand_transposition,
    extended_metric_path,
    extended_metric_path_optimized,
    format_cost_file,
    format_cycles,
    format_one_line,
    format_path_file,
    from_pairs,
    mcd_exact,
    merge_cycles,
    metric_path,
    mld_table,
    nontrivial_cycles,
    parse_cost_file,
    parse_cost_input,
    parse_cycles,
    parse_one_line,
    parse_path_file,
    permutation_from_cycles,
    permutation_lower_bound,
    sharpened_lower_bound,
    shortest_swaps,
)
from permsort.costs import _format_value, tolerance  # noqa: E402
from permsort.errors import CostParseError, InfeasibleError  # noqa: E402
from permsort.multicycle import mld_std_totals  # noqa: E402

from reference_routes import (  # noqa: E402
    bellman_ford,
    merge_cycles_rescan,
    mld_table_quartic,
    optimize_costs,
    product_by_fold,
)

# deterministic and without an example database, so every run of the suite
# checks the same instances
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def tables(draw, max_n=9, values=st.integers(0, 30), min_n=2):
    n = draw(st.integers(min_n, max_n))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    costs = draw(st.lists(st.one_of(values, st.just(INF)),
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
    engine = shortest_swaps(raw)
    # phi* has the raw table's distances, entry for entry, so the bound can
    # read the engine's D wherever it used to run Floyd-Warshall on phi*
    star_dist = shortest_swaps(engine.optimized).dist
    assert star_dist == engine.dist
    for dist in (engine.dist, star_dist):
        if want == INF:
            with pytest.raises(InfeasibleError):
                permutation_lower_bound(p, dist)
        else:
            assert permutation_lower_bound(p, dist) == want
    if want != INF:
        per_cycle = [permutation_lower_bound(c.as_permutation(raw.n), engine.dist)
                     for c in nontrivial_cycles(p)]
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
                expand_transposition(a, b, engine)
            continue
        d = expand_transposition(a, b, engine)
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
    engine = shortest_swaps(raw)
    lb = permutation_lower_bound(p, engine.dist)
    sharp = sharpened_lower_bound(p, raw, lb)
    big_l, big_s = mld_std_totals(p, engine.optimized)
    assert lb <= sharp <= m <= big_l <= big_s <= 4 * m


@PROPERTY
@given(paths_and_permutations())
def test_metric_exact_meets_the_exhaustive_minimum(case):
    path, p = case
    metric = metric_path(path)
    _, cost = decompose(p, metric, "metric-exact", defining_path=path)
    assert cost == mcd_exact(p, metric).min_cost
    # a path metric is its own distance table, and the floor is exact on it
    assert permutation_lower_bound(p, metric.table) == cost


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


@st.composite
def cycles_on_tables(draw, max_k=10):
    values = draw(st.sampled_from([
        st.integers(0, 6),
        # tie-prone: many sums of these are equal, or equal after rounding
        st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1]),
        st.floats(0, 10, allow_nan=False, allow_infinity=False),
    ]))
    table = draw(tables(max_k, values)).assume_optimized()
    k = draw(st.integers(2, table.n))
    order = draw(st.permutations(range(1, table.n + 1)))
    return Cycle(tuple(order[:k])), table


@PROPERTY
@given(cycles_on_tables())
def test_interval_dp_equals_the_quartic_recurrence(case):
    cycle, table = case
    got = mld_table(cycle, table)
    want = mld_table_quartic(cycle, table)
    assert got.cost == want.cost
    assert got.split == want.split


@st.composite
def multicycle_permutations(draw, max_n=9):
    raw = draw(tables(max_n, st.integers(0, 3), min_n=4))
    n = raw.n
    order = draw(st.permutations(range(1, n + 1)))
    blocks, used = [], 0
    while n - used >= 2 and (len(blocks) < 2 or draw(st.booleans())):
        # the first cycle leaves room for a second
        top = n - used - (2 if not blocks else 0)
        size = draw(st.integers(2, top))
        blocks.append(order[used:used + size])
        used += size
    return raw, permutation_from_cycles(n, blocks)


@PROPERTY
@given(multicycle_permutations())
def test_kruskal_merge_equals_the_pair_rescan(case):
    table, p = case
    assert len(nontrivial_cycles(p)) >= 2
    assert merge_cycles(p, table) == merge_cycles_rescan(p, table)


@st.composite
def transposition_sequences(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n - 1)), max_size=30))
    # the second label skips the first, so the two always differ
    return n, Decomposition(tuple(Transposition(a, b + (b >= a)) for a, b in pairs))


@PROPERTY
@given(transposition_sequences())
def test_product_equals_the_fold_of_single_swaps(case):
    n, d = case
    assert d.product(n) == product_by_fold(d, n)


@st.composite
def path_weights(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    values = draw(st.sampled_from([st.integers(0, 9), st.floats(0, 10, allow_nan=False)]))
    weights = draw(st.lists(values, min_size=n - 1, max_size=n - 1))
    return DefiningPath(tuple(order), tuple(weights))


@PROPERTY
@given(path_weights(), st.data())
def test_adjacent_only_paths_stay_within_twice_the_minimum(path, data):
    raw = extended_metric_path(path)
    star = all_pairs_optimize(raw)
    closed = extended_metric_path_optimized(path)
    for (_, _, got), (_, _, want) in zip(star.entries(), closed.entries()):
        assert abs(got - want) <= tolerance(got, want)
    p = Permutation(tuple(data.draw(st.permutations(range(1, path.n + 1)))))
    m = mcd_exact(p, raw).min_cost
    big_l, _ = mld_std_totals(p, star)
    assert big_l <= 2 * m + tolerance(big_l, m)


# Text round trips. Costs cover ints, floats down to the subnormals and up
# to the largest double (written with repr), inf, and unlisted pairs.
COST_VALUES = st.one_of(
    st.integers(0, 10**15),
    st.floats(0, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 0.1, 1e16,
                     1.7976931348623157e308, INF]),
)


@st.composite
def sparse_tables(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    listed = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_pairs(n, [(a, b, draw(COST_VALUES)) for a, b in listed])


def _typed(matrix):
    return [(a, b, type(v), v) for a, b, v in matrix.entries()]


@PROPERTY
@given(sparse_tables())
def test_cost_file_round_trip(raw):
    text = format_cost_file(raw)
    for parsed in (parse_cost_file(text), parse_cost_input(text)):
        assert _typed(parsed) == _typed(raw)
        assert format_cost_file(parsed) == text


PATH_CASES = st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)),
    st.lists(COST_VALUES.filter(lambda v: v != INF), min_size=n - 1, max_size=n - 1)))


def _sum_overflows(weights):
    return max(accumulate(weights)) > sys.float_info.max


@PROPERTY
@given(PATH_CASES)
def test_path_file_round_trip(case):
    order, weights = case
    text = "path\n{}\n{}\n".format(" ".join(map(str, order)),
                                    " ".join(_format_value(w) for w in weights))
    if _sum_overflows(weights):
        # the weight sum leaves the float range: an input error on the weight line
        for parse in (parse_path_file, parse_cost_input):
            with pytest.raises(CostParseError) as err:
                parse(text)
            assert err.value.line == 3
        return
    path = DefiningPath(tuple(order), tuple(weights))
    for parsed in (parse_path_file(text), parse_cost_input(text)):
        assert parsed == path
        assert [type(w) for w in parsed.weights] == [type(w) for w in path.weights]
        assert format_path_file(parsed) == text


# Tables built from checked numbers skip CostMatrix.__post_init__; the full
# check must accept every one of them unchanged.
def _passes_the_full_check(m):
    return CostMatrix(m.n, m.table, m.kind) == m


@PROPERTY
@given(sparse_tables())
def test_table_builders_pass_the_full_check(raw):
    for m in (raw, parse_cost_file(format_cost_file(raw)),
              shortest_swaps(raw).optimized, raw.assume_optimized()):
        assert _passes_the_full_check(m)


@PROPERTY
@given(PATH_CASES)
def test_path_table_builders_pass_the_full_check(case):
    order, weights = case
    assume(not _sum_overflows(weights))
    path = DefiningPath(tuple(order), tuple(weights))
    for build in (metric_path, extended_metric_path, extended_metric_path_optimized):
        assert _passes_the_full_check(build(path))


@PROPERTY
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))), st.booleans())
def test_permutation_text_round_trip(images, skip_fixed):
    p = Permutation(tuple(images))
    assert parse_one_line(format_one_line(p)) == p
    assert parse_cycles(format_cycles(cycles(p), skip_fixed=skip_fixed), p.n) == p
