"""Generated-instance properties of the all-pairs engine and the paper's bounds.

Random integer tables with zero and infinite entries, n <= 9. The engine's
distances and next hops must equal those of the Floyd-Warshall loop over
every ordered pair, types included, on every value family and on metric and
near-metric tables, where ties and float rounding decide relaxations; its
phi*, distances and expansions are checked against the reference routes in
``reference_routes`` (the substitution sweep ``optimize_costs`` and the
per-source ``bellman_ford``) and against the 2n - 3 length bound of a
palindrome along a simple path. For n <= 6, ``mcd_exact`` must return the
M and witness of the plain Dijkstra ``mcd_dijkstra`` bit for bit, on
integer, float, tie-heavy, zero-heavy and inf-heavy tables. For n <= 8 its
exhaustive minimum M checks the chain of bounds lower bound <= sharpened
bound <= M <= L <= S <= 4M, its own witnesses, the exactness of
``metric-exact`` on path distances and L <= 2M on adjacent-only paths.
``metric_path_mcd`` must give the swaps and the cost, bit for bit, of the
segment tree converted by ``tree_decomposition``, on int, float and zero
path weights. The interval DP, the cycle merge, and the validation of a
transposition sequence against permutations and cycles, labels past n
included, must equal their straightforward routes in ``reference_routes``
exactly, floats and ties included; so must phi* and every route against
the two passes with argmin tables, and ``mld_cost`` and the splits found
per visited interval against the full interval table, number types
included. Cost files, path files, one-line and cycle notation must read
back what was written, the reader's chunked line split must give the lines
and line numbers of ``str.splitlines``, and every table builder's output
must pass the full ``CostMatrix`` check it skips. The command line, fed small cost and path
files with hostile tokens, must exit 0, 1, 3 or 4 without a traceback,
print nothing on an error, and print only decompositions that multiply back
at their printed cost.
"""
import contextlib
import io
import math
import random
import re
import sys
from functools import reduce
from itertools import accumulate
from operator import add
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, assume, example, given, settings, strategies as st  # noqa: E402

from permsort import (  # noqa: E402
    INF,
    CostMatrix,
    Cycle,
    Decomposition,
    DefiningPath,
    Permutation,
    Transposition,
    all_pairs_optimize,
    decompose,
    expand_transposition,
    extended_metric_path,
    format_cost_file,
    format_cycles,
    format_one_line,
    format_path_file,
    from_pairs,
    mcd_exact,
    merge_cycles,
    metric_path,
    metric_path_mcd,
    min_cost_mld,
    nontrivial_cycles,
    parse_cost_input,
    parse_cycles,
    parse_one_line,
    permutation_from_cycles,
    permutation_lower_bound,
    shortest_swaps,
    validate_decomposition,
)
from permsort.cli import main  # noqa: E402
from permsort.costs import _content_lines, _format_value, _raw_lines, tolerance  # noqa: E402
from permsort.errors import CostParseError, InfeasibleError  # noqa: E402
from permsort.mld import _rebuild, mld_cost  # noqa: E402

from reference_routes import (  # noqa: E402
    bellman_ford,
    cycles,
    extended_metric_path_optimized,
    floyd_warshall_square,
    mcd_dijkstra,
    merge_cycles_rescan,
    _segment_tree,
    mld_table,
    mld_table_quartic,
    optimize_costs,
    product_by_fold,
    route_by_argmins,
    sharpened_lower_bound,
    swap_tables_with_argmins,
    tree_decomposition,
)

# deterministic and without an example database, so every run of the suite
# checks the same instances; without the explain phase, which only
# annotates a failure, so pass or fail is the same
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    phases=tuple(p for p in Phase if p is not Phase.explain))

# the largest n the exhaustive minimum is drawn at, past its default guard
ORACLE_N = 8


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


# ints, tie-prone floats, any small float and inf, mixed within one table
MIXED_VALUES = st.one_of(st.integers(0, 6), st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1]),
                         st.floats(0, 10, allow_nan=False, allow_infinity=False))


def _typed_rows(rows):
    return [[(type(v), v) for v in row] for row in rows]


@st.composite
def component_tables(draw, max_n=14, values=MIXED_VALUES):
    # labels dealt to 1-4 components; every pair across two of them is inf
    n = draw(st.integers(1, max_n))
    part = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    costs = draw(st.lists(st.one_of(values, st.just(INF)), min_size=len(pairs), max_size=len(pairs)))
    return from_pairs(n, [(a, b, v if part[a - 1] == part[b - 1] else INF)
                          for (a, b), v in zip(pairs, costs)])


@PROPERTY
@given(st.one_of(tables(values=MIXED_VALUES), component_tables()))
def test_value_only_kernels_equal_the_argmin_passes(raw):
    # phi* by value only, and each route's argmin edge found when it is
    # asked for, against the two passes that store an argmin table each;
    # the value-only passes skip the cells D marks inf, the argmin passes
    # take every minimum
    engine = shortest_swaps(raw)
    rows, left_u, right_v = swap_tables_with_argmins(engine)
    star = engine.optimized.table
    assert _typed_rows(star) == _typed_rows(rows)
    for a in range(1, raw.n + 1):
        for b in range(1, raw.n + 1):
            if a != b and star[a - 1][b - 1] != INF:
                assert engine.route(a, b) == route_by_argmins(engine, left_u, right_v, a, b)


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
        per_cycle = [permutation_lower_bound(permutation_from_cycles(raw.n, [c]), engine.dist)
                     for c in nontrivial_cycles(p)]
        assert reduce(add, per_cycle, 0) == want


@PROPERTY
@given(tables())
def test_expansions_multiply_back_at_optimized_cost(raw):
    n = raw.n
    engine = shortest_swaps(raw)
    star = engine.optimized
    for a, b, _ in star.entries():
        if star.cost(a, b) == INF:
            with pytest.raises(InfeasibleError):
                expand_transposition(a, b, engine)
            continue
        d = expand_transposition(a, b, engine)
        assert product_by_fold(d, n) == product_by_fold(Decomposition((Transposition(a, b),)), n)
        assert d.cost(raw) == star.cost(a, b)
        assert len(d) <= 2 * n - 3


@PROPERTY
@given(tables_and_permutations(max_n=ORACLE_N))
def test_bounds_chain_around_the_exhaustive_minimum(case):
    raw, p = case
    engine = shortest_swaps(raw)
    try:
        m = mcd_exact(p, engine, ORACLE_N)[1]
    except InfeasibleError:
        return
    lb = permutation_lower_bound(p, engine.dist)
    sharp = sharpened_lower_bound(p, raw, lb)
    big_l = decompose(p, engine.optimized, "mld")[1]
    big_s = decompose(p, engine.optimized, "std")[1]
    assert lb <= sharp <= m <= big_l <= big_s <= 4 * m


@PROPERTY
@given(paths_and_permutations(max_n=ORACLE_N))
def test_metric_exact_meets_the_exhaustive_minimum(case):
    path, p = case
    metric = metric_path(path)
    _, cost = decompose(p, path, "metric-exact")
    assert cost == mcd_exact(p, shortest_swaps(metric), ORACLE_N)[1]
    # a path metric is its own distance table, and the floor is exact on it
    assert permutation_lower_bound(p, metric.table) == cost
    assert permutation_lower_bound(p, path) == cost


# path weights: ints, tie-prone floats, any small float, and zeros of both types
PATH_WEIGHTS = st.one_of(st.integers(0, 9), st.sampled_from([0, 0.0, 0.1, 0.2, 0.3, 0.7]),
                         st.floats(0, 10, allow_nan=False, allow_infinity=False))


@st.composite
def paths_and_cycles(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    weights = draw(st.lists(PATH_WEIGHTS, min_size=n - 1, max_size=n - 1))
    labels = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    return DefiningPath(tuple(order), tuple(weights)), Cycle(tuple(labels))


@PROPERTY
@given(paths_and_cycles())
def test_metric_path_mcd_equals_the_segment_tree_route(case):
    # the Cartesian-tree splits against the segment tree turned into a
    # sequence by peeling: the same swaps, and the same cost to the bit
    path, cyc = case
    d, cost = metric_path_mcd(cyc, path)
    edges = _segment_tree(list(cyc.elements), path.positions)
    want = tree_decomposition(cyc, edges)
    want_cost = reduce(add, (path.distance(u, v) for u, v in edges), 0)
    assert sorted((t.a, t.b) for t in d) == sorted((t.a, t.b) for t in want)
    assert (type(cost), repr(cost)) == (type(want_cost), repr(want_cost))
    assert validate_decomposition(d, permutation_from_cycles(path.n, [cyc]))


@PROPERTY
@given(tables_and_permutations(max_n=ORACLE_N))
def test_exhaustive_witness_multiplies_back_at_its_cost(case):
    raw, p = case
    try:
        witness, m = mcd_exact(p, shortest_swaps(raw), ORACLE_N)
    except InfeasibleError as e:
        assert str(e) == "target unreachable: some required swap has no finite route"
        return
    assert product_by_fold(witness, raw.n) == p
    assert witness.cost(raw) == m


# the value families the A* must agree with Dijkstra on: ints, floats,
# {1, 2} ties, zero-heavy, inf-heavy (tables() adds inf to each) and floats
# whose sums overflow the largest double
ORACLE_VALUES = st.sampled_from([
    st.integers(0, 30),
    st.floats(0, 10, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1]),
    st.sampled_from([1, 2]),
    st.sampled_from([0, 0, 0, 1, 3]),
    st.one_of(st.just(INF), st.integers(0, 9)),
    st.sampled_from([1e308, 6e307, 1.0, 0.0]),
])


@PROPERTY
@given(ORACLE_VALUES.flatmap(lambda values: tables(6, values)), st.data())
def test_astar_equals_the_reference_dijkstra(raw, data):
    p = Permutation(tuple(data.draw(st.permutations(range(1, raw.n + 1)))))
    m, witness = mcd_dijkstra(p, raw)
    if m == INF:
        with pytest.raises(InfeasibleError, match="target unreachable"):
            mcd_exact(p, shortest_swaps(raw))
        return
    got_witness, got_m = mcd_exact(p, shortest_swaps(raw))
    assert (type(got_m), got_m) == (type(m), m)
    assert str(got_witness) == str(witness)


@PROPERTY
@given(st.one_of(ORACLE_VALUES, st.just(MIXED_VALUES)).flatmap(lambda values: tables(values=values)))
def test_triangle_engine_equals_the_square_loop(raw):
    # one triangle relaxed and mirrored against every ordered pair relaxed,
    # on every value family: distances with their types, and next hops
    engine = shortest_swaps(raw)
    dist, hop = floyd_warshall_square(raw)
    assert _typed_rows(engine.dist) == _typed_rows(dist)
    assert engine.hop == hop
    assert _typed_rows(engine.dist) == _typed_rows(zip(*engine.dist))


@st.composite
def metric_tables(draw, max_n=9):
    """L1 and L2 point sets, int and float path metrics, and near-metric
    tables with one entry raised above a two-swap route.

    Points may coincide (zero costs), and points in different groups cost
    inf; float rounding breaks the triangle inequality in some tables.
    """
    n = draw(st.integers(2, max_n))
    family = draw(st.sampled_from(["l1 int", "l1 float", "l2 float", "path int", "path float"]))
    if family.startswith("path"):
        weights = st.integers(0, 9) if family == "path int" else st.floats(0, 10, allow_nan=False)
        order = draw(st.permutations(range(1, n + 1)))
        raw = metric_path(DefiningPath(order, draw(st.lists(weights, min_size=n - 1, max_size=n - 1))))
    else:
        coord = st.integers(0, 4) if family == "l1 int" else st.floats(0, 10, allow_nan=False)
        points = draw(st.lists(st.tuples(coord, coord, st.integers(0, 1)), min_size=n, max_size=n))
        distance = math.dist if family == "l2 float" else (lambda p, q: abs(p[0] - q[0]) + abs(p[1] - q[1]))
        raw = from_pairs(n, [(a + 1, b + 1, distance(p[:2], q[:2]) if p[2] == q[2] else INF)
                             for a, p in enumerate(points) for b, q in enumerate(points) if a < b])
    if n >= 3 and draw(st.booleans()):
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        a, b = draw(st.one_of(st.just(pairs[-1]), st.sampled_from(pairs)))
        c = draw(st.sampled_from([c for c in range(1, n + 1) if c not in (a, b)]))
        detour = raw.cost(a, c) + raw.cost(c, b)
        assume(detour != INF)
        entries = {(x, y): v for x, y, v in raw.entries()}
        entries[a, b] = detour + draw(st.sampled_from([1, 0.5]))
        raw = from_pairs(n, [(x, y, v) for (x, y), v in entries.items()])
    return raw


@PROPERTY
@given(metric_tables())
def test_triangle_engine_equals_the_square_loop_on_metric_tables(raw):
    # on a metric table no relaxation succeeds and every hop stays direct;
    # a near-metric one relaxes one pair, and float rounding may relax more
    engine = shortest_swaps(raw)
    dist, hop = floyd_warshall_square(raw)
    assert _typed_rows(engine.dist) == _typed_rows(dist)
    assert engine.hop == hop


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


@PROPERTY
@given(cycles_on_tables())
def test_mld_cost_and_lazy_splits_equal_the_full_table(case):
    # mld_cost reads one corner of the value-only fill, and min_cost_mld
    # finds a split only for the intervals it visits
    cycle, table = case
    full = mld_table(cycle, table)
    want = full.cost[1][cycle.k]
    if want == INF:
        for route in (mld_cost, min_cost_mld):
            with pytest.raises(InfeasibleError, match="admits no finite-cost decomposition"):
                route(cycle, table)
        return
    got = mld_cost(cycle, table)
    d, total = min_cost_mld(cycle, table)
    assert (type(got), got) == (type(total), total) == (type(want), want)
    expected = _rebuild(cycle.elements, lambda i, j: full.split[i][j])
    assert d.transpositions == tuple(expected)


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


@PROPERTY
@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_nontrivial_cycles_are_the_cycles_past_fixed_points(images):
    p = Permutation(tuple(images))
    assert nontrivial_cycles(p) == [c for c in cycles(p) if c.k > 1]


@st.composite
def transposition_sequences(draw, max_n=12):
    """A sequence on labels up to n or up to n + 2, maybe followed by its own
    reverse, which moves every label back; a permutation of 1..n; and a
    cycle, maybe a 1-cycle, on labels up to n + 2."""
    n = draw(st.integers(1, max_n))
    top = draw(st.sampled_from([n + 2, max(n, 2)]))
    pairs = draw(st.lists(st.tuples(st.integers(1, top), st.integers(1, top - 1)), max_size=30))
    # the second label skips the first, so the two always differ
    swaps = [Transposition(a, b + (b >= a)) for a, b in pairs]
    if draw(st.booleans()):
        swaps += swaps[::-1]
    images = draw(st.permutations(range(1, n + 1)))
    ring = draw(st.lists(st.integers(1, n + 2), min_size=1, max_size=n + 2, unique=True))
    return n, Decomposition(swaps), Permutation(images), Cycle(ring)


@PROPERTY
@given(transposition_sequences())
def test_product_equals_the_fold_of_single_swaps(case):
    # validation against a permutation or a cycle agrees with the fold
    n, d, other, ring = case
    try:
        want = product_by_fold(d, n)
    except ValueError:    # a label past n
        want = None
    for target in (want, other) if want else (other,):
        assert validate_decomposition(d, target) == (target == want)
    # a cycle has no n: it is read on every label in play
    top = max(n, *ring.elements, *(t.b for t in d))
    whole = product_by_fold(d, top)
    for target in [ring] + nontrivial_cycles(whole)[-1:]:
        assert validate_decomposition(d, target) == (whole == permutation_from_cycles(top, [target]))


@st.composite
def path_weights(draw, max_n=6):
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    values = draw(st.sampled_from([st.integers(0, 9), st.floats(0, 10, allow_nan=False)]))
    weights = draw(st.lists(values, min_size=n - 1, max_size=n - 1))
    return DefiningPath(tuple(order), tuple(weights))


@PROPERTY
@given(path_weights(max_n=ORACLE_N), st.data())
def test_adjacent_only_paths_stay_within_twice_the_minimum(path, data):
    raw = extended_metric_path(path)
    star = all_pairs_optimize(raw)
    closed = extended_metric_path_optimized(path)
    for (_, _, got), (_, _, want) in zip(star.entries(), closed.entries()):
        assert abs(got - want) <= tolerance(got, want)
    p = Permutation(tuple(data.draw(st.permutations(range(1, path.n + 1)))))
    m = mcd_exact(p, shortest_swaps(raw), ORACLE_N)[1]
    big_l = decompose(p, star, "mld")[1]
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
    parsed = parse_cost_input(text)
    assert _typed(parsed) == _typed(raw)
    assert format_cost_file(parsed) == text


# every break str.splitlines knows, "\r\n" among them, with blank, comment
# and content lines between
LINE_PIECES = st.sampled_from(["\r\n", "\r", "\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                               "\u2028", "\u2029", " ", "# c", "1 2 3", "n 3"])


@PROPERTY
@given(st.lists(LINE_PIECES).map("".join), st.integers(1, 8))
def test_chunked_lines_equal_the_whole_split(text, chunk):
    # a chunk of 1-8 characters puts a cut after nearly every "\n"
    with mock.patch("permsort.costs._CHUNK", chunk):
        assert list(_raw_lines(text)) == text.splitlines()
        got = list(_content_lines(text))
    stripped = ((lineno, raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(text.splitlines(), 1))
    assert got == [(lineno, line) for lineno, line in stripped if line]


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
        with pytest.raises(CostParseError) as err:
            parse_cost_input(text)
        assert err.value.line == 3
        return
    path = DefiningPath(tuple(order), tuple(weights))
    parsed = parse_cost_input(text)
    assert parsed == path
    assert [type(w) for w in parsed.weights] == [type(w) for w in path.weights]
    assert format_path_file(parsed) == text


# Tables built from checked numbers skip CostMatrix._check; the full
# check must accept every one of them unchanged.
def _passes_the_full_check(m):
    return CostMatrix(m.n, m.table, m.kind) == m


@PROPERTY
@given(sparse_tables())
def test_table_builders_pass_the_full_check(raw):
    for m in (raw, parse_cost_input(format_cost_file(raw)),
              shortest_swaps(raw).optimized, raw.assume_optimized()):
        assert _passes_the_full_check(m)


# PATH_CASES plus int weights in the top half of the path limit: n - 1 of
# them sum to at most the largest double over 10n, the most DefiningPath
# accepts
LIMIT_PATH_CASES = st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)),
    st.lists(st.one_of(COST_VALUES.filter(lambda v: v != INF),
                       st.integers(int(sys.float_info.max) // (20 * n * (n - 1)),
                                   int(sys.float_info.max) // (10 * n * (n - 1)))),
             min_size=n - 1, max_size=n - 1)))


@PROPERTY
@given(LIMIT_PATH_CASES)
@example((tuple(range(1, 9)), (2 * 10**305,) * 7))
def test_path_table_builders_pass_the_full_check(case):
    order, weights = case
    assume(not _sum_overflows(weights))
    path = DefiningPath(tuple(order), tuple(weights))
    for build in (metric_path, extended_metric_path, extended_metric_path_optimized):
        assert _passes_the_full_check(build(path))
        assert _passes_the_full_check(shortest_swaps(build(path)).optimized)


@PROPERTY
@given(st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_permutation_text_round_trip(images):
    p = Permutation(tuple(images))
    assert parse_one_line(format_one_line(p)) == p
    # the parser also reads fixed points written as 1-cycles
    for written in (nontrivial_cycles(p), cycles(p)):
        assert parse_cycles(format_cycles(written), p.n) == p


# Tokens that a cost, path or permutation file may hold in place of a good
# one: out of range, not a number, past the float range, or a header.
HOSTILE_TOKENS = ("0", "-1", "7", "x", "inf", "nan", "2.5", "1e400",
                  "1.7976931348623157e308", "99999999999999999999", "path", "n", "(", ")")


def _mutated(rng, text, count):
    """``text`` with ``count`` tokens replaced by hostile ones or lines dropped."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(count):
        if not lines:
            break
        words = lines[rng.randrange(len(lines))]
        if words and rng.random() < 0.7:
            words[rng.randrange(len(words))] = rng.choice(HOSTILE_TOKENS)
        else:
            lines.remove(words)
    return "".join(" ".join(words) + "\n" for words in lines)


@st.composite
def cli_runs(draw):
    """A cost or path file of n <= 6 labels, a permutation and a command line.

    Hypothesis draws the shape; the file contents come from one drawn seed,
    which keeps a hundred runs inside a second."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    if n > 1 and draw(st.booleans()):
        order = rng.sample(range(1, n + 1), n)
        costs = format_path_file(DefiningPath(tuple(order), tuple(rng.randint(0, 9) for _ in order[1:])))
    else:
        # sparse tables leave cycles without a finite route
        holes = rng.choice((0.0, 0.3, 0.8))
        costs = format_cost_file(from_pairs(n, [
            (a, b, INF if rng.random() < holes else rng.choice((0, 1, 2, 5, 30)))
            for a in range(1, n + 1) for b in range(a + 1, n + 1)]))
    m = n if rng.random() < 0.9 else n % 6 + 1
    p = Permutation(tuple(rng.sample(range(1, m + 1), m)))
    perm = format_one_line(p) if draw(st.booleans()) else format_cycles(nontrivial_cycles(p))
    # two runs in five get a hostile token or lose a line
    hostile = rng.choice((None, None, None, "costs", "perm"))
    if hostile == "costs":
        costs = _mutated(rng, costs, rng.randint(1, 2))
    elif hostile == "perm":
        perm = _mutated(rng, perm, 1).strip()
    command = draw(st.sampled_from(("decompose", "decompose", "oracle", "optimize")))
    options = []
    if command == "decompose":
        options += draw(st.sampled_from(([], ["--method", "std"], ["--method", "merge"],
                                         ["--method", "metric-exact"])))
        options += draw(st.sampled_from(([], ["--expand"], ["--trust-raw"])))
        if rng.random() < (0.5 if "merge" in options else 0.1):
            options += ["--join", rng.choice(("1,2", "1,3;2,4", "1,2,3", "a,b", ""))]
    elif command == "oracle":
        options += rng.choice(([], ["--limit", "3"]))
    return costs, perm, command, options


def _number(text):
    return int(text) if text.isdigit() else float(text)


def _check_printed_decomposition(costs_text, perm_text, options, out):
    printed = dict(line.split(": ", 1) for line in out.splitlines() if not line.startswith("#"))
    p = parse_one_line(printed["permutation"])
    assert p == (parse_cycles(perm_text, p.n) if perm_text.startswith("(")
                 else parse_one_line(perm_text))
    d = Decomposition(tuple(Transposition(int(a), int(b))
                            for a, b in re.findall(r"\((\d+) (\d+)\)", printed["decomposition"])))
    assert validate_decomposition(d, p)
    parsed = parse_cost_input(costs_text)
    if "metric-exact" in options:
        expected = reduce(add, (parsed.distance(t.a, t.b) for t in d.transpositions), 0)
    else:
        raw = metric_path(parsed) if isinstance(parsed, DefiningPath) else parsed
        expected = d.cost(raw if "--trust-raw" in options else all_pairs_optimize(raw))
    cost = _number(printed["cost"])
    assert abs(cost - expected) <= tolerance(cost, expected)


@pytest.fixture(scope="module")
def cost_path(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "t.cost"


@PROPERTY
@given(cli_runs())
def test_command_line_survives_hostile_files(cost_path, case):
    costs, perm, command, options = case
    cost_path.write_text(costs)
    argv = [command, str(cost_path)] + ([perm] if command != "optimize" else []) + options
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 3, 4), (argv, costs, err.getvalue())
    if code:
        assert out.getvalue() == "", argv
    elif command == "decompose":
        _check_printed_decomposition(costs, perm, options, out.getvalue())
