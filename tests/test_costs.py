import math
import random
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from permsort import (
    INF,
    CostMatrix,
    Cycle,
    DefiningPath,
    all_pairs_optimize,
    extended_metric_path,
    format_cost_file,
    format_path_file,
    from_pairs,
    mcd_exact,
    metric_path,
    parse_cost_input,
    parse_cycles,
)
from permsort import costs as costs_module
from permsort.costs import tolerance
from permsort.errors import TABLE_LIMIT, CostParseError, SizeLimitError
from permsort.mld import metric_path_mcd
from permsort.multicycle import merge_cycles, permutation_lower_bound
from permsort.optimize import shortest_swaps

from frozen import mod5_raw, ring10_distance, ring10_raw
from reference_routes import extended_metric_path_optimized, is_metric, segment


def test_matrix_validation():
    with pytest.raises(ValueError):
        CostMatrix(2, ((0, 1), (2, 0)))  # asymmetric
    with pytest.raises(ValueError):
        CostMatrix(2, ((1, 1), (1, 0)))  # nonzero diagonal
    with pytest.raises(ValueError):
        CostMatrix(2, ((0, -1), (-1, 0)))
    with pytest.raises(ValueError):
        CostMatrix(2, ((0, 1), (1, 0)), kind="shiny")
    with pytest.raises(ValueError):
        CostMatrix(3, ((0, 1), (1, 0)))  # shape


def test_lookup_guards():
    m = from_pairs(3, [(1, 2, 5)])
    assert m.cost(2, 1) == 5
    assert m.cost(1, 3) == INF
    with pytest.raises(ValueError):
        m.cost(2, 2)
    with pytest.raises(ValueError):
        m.cost(0, 1)


def test_from_pairs():
    m = from_pairs(3, [(1, 2, 5), (2, 1, 5)])  # agreeing duplicate is fine
    assert m.cost(1, 2) == 5
    assert m.kind == "raw"
    with pytest.raises(ValueError):
        from_pairs(3, [(1, 2, 5), (2, 1, 6)])
    # a pair listed as inf is listed, though inf is also the unlisted default
    with pytest.raises(ValueError, match=r"conflicting duplicate for pair \(1, 2\)"):
        from_pairs(3, [(1, 2, INF), (2, 1, 5)])
    assert from_pairs(3, [(1, 2, INF), (2, 1, INF)]).cost(1, 2) == INF
    with pytest.raises(ValueError):
        from_pairs(3, [(1, 1, 5)])
    with pytest.raises(ValueError):
        from_pairs(3, [(1, 4, 5)])
    with pytest.raises(ValueError):
        from_pairs(3, [(1, 2, -2)])
    # a pair listed again counts once toward the int total, at its limit too
    top = int(sys.float_info.max) // 30    # the largest accepted total at n = 3
    entries = [(1, 2, top // 2), (2, 3, top - top // 2)]
    for again in ((1, 2, top // 2), (2, 1, top // 2)):
        assert from_pairs(3, entries + [again]) == from_pairs(3, entries)
    with pytest.raises(ValueError, match="integer costs sum past the float range"):
        from_pairs(3, [(1, 2, top // 2), (2, 3, top - top // 2 + 1)])
    # the later listing is stored, and an int replacing an equal float counts
    assert type(from_pairs(2, [(1, 2, 5), (2, 1, 5.0)]).cost(1, 2)) is float
    with pytest.raises(ValueError, match="integer costs sum past the float range"):
        from_pairs(3, [(1, 2, 1e308), (2, 1, int(1e308))])


def test_helpers():
    m = from_pairs(3, [(1, 2, 5), (1, 3, INF), (2, 3, 0.5)])
    assert list(m.entries()) == [(1, 2, 5), (1, 3, INF), (2, 3, 0.5)]
    opt = m.assume_optimized()
    assert opt.kind == "optimized" and opt.table == m.table


def test_a_zero_is_stored_as_positive_zero():
    assert math.copysign(1, from_pairs(2, [(1, 2, -0.0)]).cost(1, 2)) == 1
    assert math.copysign(1, parse_cost_input("n 2\n1 2 -0.0\n").cost(1, 2)) == 1
    assert math.copysign(1, parse_cost_input("path\n1 2\n-0.0\n").weights[0]) == 1
    assert math.copysign(1.0, extended_metric_path(DefiningPath((1, 2), (-0.0,))).cost(1, 2)) == 1.0


def test_a_hand_built_negative_zero_prints_as_zero():
    # CostMatrix and DefiningPath keep a hand-built -0.0; the writer prints it as 0.0
    assert format_cost_file(CostMatrix(2, ((0, -0.0), (-0.0, 0)))) == "n 2\n1 2 0.0\n"
    path = DefiningPath((1, 2), (-0.0,))
    assert format_cost_file(extended_metric_path(path)) == "n 2\n1 2 0.0\n"
    assert format_path_file(path) == "path\n1 2\n0.0\n"


def test_tolerance_is_exact_on_integers():
    assert tolerance(3, 0, 12) == 0
    assert tolerance(0.5, 0.25) == 1e-9
    assert tolerance(2, -4e3) == 1e-9 * 4e3


def test_parse_cost_file():
    text = """
    # a comment
    n 3

    1 2 5      # trailing comment
    1 3 inf
    2 3 0.5
    """
    m = parse_cost_input(text)
    assert m.n == 3
    assert m.cost(1, 2) == 5 and isinstance(m.cost(1, 2), int)
    assert m.cost(1, 3) == INF
    assert m.cost(2, 3) == 0.5


@pytest.mark.parametrize("text, lineno", [
    ("m 3\n1 2 5", 1),
    ("n x\n", 1),
    ("n 0\n", 1),
    ("n 3\n1 2\n", 2),
    ("n 3\n1 2 5\n1 3 -4\n", 3),
    ("n 3\n1 2 5\n1 2 6\n", 3),
    # a pair listed as inf is listed: it matches the unlisted default, not 5
    ("n 3\n1 2 inf\n2 1 5\n", 3),
    # a comment and a blank line keep their line numbers
    ("n 3\n# c\n\n1 2 5\n1 2 6\n", 5),
    ("n 3\n4 2 5\n", 2),
    ("n 3\n1 1 5\n", 2),
    ("n 3\n1 2 soup\n", 2),
])
def test_parse_errors_name_the_line(text, lineno):
    with pytest.raises(CostParseError) as err:
        parse_cost_input(text)
    assert err.value.line == lineno
    assert f"line {lineno}:" in str(err.value)


def test_parse_rejects_overflowing_costs():
    # float() reads all of these as inf; only the literal 'inf' may mean it
    for tok in ("1e400", "Infinity", "INF", "1" + "0" * 400):
        with pytest.raises(CostParseError) as err:
            parse_cost_input(f"n 3\n1 2 5\n2 3 {tok}\n")
        assert err.value.line == 3
        assert "only 'inf' means infinity" in str(err.value)
    with pytest.raises(CostParseError) as err:
        parse_cost_input("path\n1 2 3\n1 1e400\n")
    assert err.value.line == 3
    assert parse_cost_input("n 2\n1 2 1e308\n").cost(1, 2) == 1e308


def test_parse_empty_file():
    with pytest.raises(CostParseError):
        parse_cost_input("# nothing here\n")


def test_format_round_trip():
    m = from_pairs(3, [(1, 2, 5), (2, 3, 0.5)])
    again = parse_cost_input(format_cost_file(m))
    assert again.table == m.table
    text = format_cost_file(m)
    assert text.splitlines()[0] == "n 3"
    assert "1 3 inf" in text


def test_defining_path_validation():
    p = DefiningPath((2, 1, 3), (4, 1))
    assert p.n == 3
    assert p.positions[2] == 0 and p.positions[3] == 2
    assert segment(p, 2, 3) == (5, 4)
    assert segment(p, 3, 2) == (5, 4)
    with pytest.raises(ValueError):
        DefiningPath((1, 3), (1,))  # order must cover 1..n
    with pytest.raises(ValueError):
        DefiningPath((1, 2, 3), (1,))  # weight count
    with pytest.raises(ValueError):
        DefiningPath((1, 2), (INF,))
    with pytest.raises(ValueError):
        segment(p, 2, 2)


def test_path_file_round_trip():
    p = DefiningPath((1, 3, 5, 2, 4), (2, 1, 4, 1))
    again = parse_cost_input(format_path_file(p))
    assert again == p
    with pytest.raises(CostParseError):
        parse_cost_input("path\n1 2 3\n")


def test_each_parsed_cost_is_checked_once(monkeypatch):
    # _parse_value checks each token on its line; a table entry is not
    # checked again, a path weight once more by DefiningPath
    checked = []
    valid = costs_module._is_valid_cost

    def counting(v):
        checked.append(v)
        return valid(v)

    monkeypatch.setattr(costs_module, "_is_valid_cost", counting)
    parse_cost_input("n 4\n1 2 3\n1 3 inf\n2 4 0.5\n3 4 7\n")
    assert checked == [3, 0.5, 7]    # the literal 'inf' needs no check
    checked.clear()
    parse_cost_input("path\n1 3 5 2 4\n2 1 4.5 1\n")
    assert checked == [2, 1, 4.5, 1] * 2
    # a listed pair and a hand-built path are still checked in full
    checked.clear()
    from_pairs(3, [(1, 2, 3)])
    DefiningPath((1, 2, 3), (1, 2))
    assert checked == [3, 1, 2]
    for text, message in [("path\n1 2 3\n1 inf\n", "line 3: bad path weight inf"),
                          ("path\n1 2 3\n1 x\n", "line 3: bad cost value 'x'"),
                          ("n 2\n1 2 -1\n", "line 2: bad cost value '-1'")]:
        with pytest.raises(CostParseError) as exc:
            parse_cost_input(text)
        assert str(exc.value) == message


def test_parse_cost_input_dispatch():
    assert isinstance(parse_cost_input("path\n1 2\n3\n"), DefiningPath)
    assert isinstance(parse_cost_input("n 2\n1 2 3\n"), CostMatrix)
    with pytest.raises(CostParseError):
        parse_cost_input("   \n")


def test_cost_header_past_the_table_limit_is_refused():
    # refused at the header line, before the n x n rows are allocated
    with pytest.raises(SizeLimitError, match=f"n={TABLE_LIMIT + 1} exceeds the cost table limit"):
        parse_cost_input(f"n {TABLE_LIMIT + 1}\n1 2 1\n")


def test_parsing_keeps_one_table_and_no_list_of_lines():
    # a dense n = 400 table is 79,800 lines in a 0.8 MB file: its rows,
    # frozen in place, take 1.7 MiB, while a frozen copy of the rows would
    # add 0.75 MiB, the whole file's list of lines 3.9 MiB, and a list of its
    # content lines or a set of its pair keys more still
    rng = random.Random(400)
    text = "n 400\n" + "".join(f"{a} {b} {rng.randint(1, 100)}\n"
                               for a in range(1, 401) for b in range(a + 1, 401))
    tracemalloc.start()
    try:
        table = parse_cost_input(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.n == 400 and INF not in table.table[0]
    assert peak < 2 * 2**20


def test_a_path_file_is_refused_at_its_first_line_past_the_weights():
    message = "a path file needs an order line and a weight line"
    for short in ("path\n", "path\n1 2\n", "path\n1 2\n5\n9 9\n"):
        with pytest.raises(CostParseError) as caught:
            parse_cost_input(short)
        assert str(caught.value) == message
    # 200,000 lines past the weights, 0.8 MB: listing their (line number,
    # text) pairs takes over 25 MiB, and reading stops at the first
    text = "path\n1 2\n5\n" + "9 9\n" * 200_000
    tracemalloc.start()
    try:
        with pytest.raises(CostParseError) as caught:
            parse_cost_input(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == message
    assert peak < 2 * 2**20


@pytest.mark.parametrize("build", ["from_pairs", "metric_path", "extended_metric_path"])
def test_table_builders_refuse_past_the_table_limit(build):
    # TABLE_LIMIT + 1 labels: a builder that skipped the guard would
    # allocate about four million entries, and fail the raises
    n = TABLE_LIMIT + 1
    path = DefiningPath(tuple(range(1, n + 1)), (1,) * (n - 1))
    call = {"from_pairs": lambda: from_pairs(n, []),
            "metric_path": lambda: metric_path(path),
            "extended_metric_path": lambda: extended_metric_path(path)}[build]
    with pytest.raises(SizeLimitError, match=f"^n={n} exceeds the cost table limit {TABLE_LIMIT}: "):
        call()


def test_metric_path_distances():
    p = DefiningPath((2, 1, 3), (4, 1))
    m = metric_path(p)
    assert m.cost(2, 1) == 4
    assert m.cost(1, 3) == 1
    assert m.cost(2, 3) == 5
    assert is_metric(m)


def test_extended_metric_path_tables():
    p = DefiningPath((1, 2, 3, 4), (1, 5, 2))
    e = extended_metric_path(p)
    assert e.cost(1, 2) == 1 and e.cost(3, 4) == 2
    assert e.cost(1, 3) == INF
    star = extended_metric_path_optimized(p)
    assert star.kind == "optimized"
    # twice the segment sum minus its largest weight
    assert star.cost(1, 2) == 1
    assert star.cost(1, 3) == 2 * 6 - 5
    assert star.cost(1, 4) == 2 * 8 - 5
    assert star.cost(2, 4) == 2 * 7 - 5


def test_extended_closed_form_stays_finite_next_to_the_largest_doubles():
    # 2 * total - top would pass the float range for (1, 2) and (1, 3); the
    # engine's phi* is finite there
    p = DefiningPath((1, 2, 3), (1e308, 1.0))
    closed = extended_metric_path_optimized(p)
    assert closed.table == all_pairs_optimize(extended_metric_path(p)).table
    assert closed.cost(1, 3) == 1e308


def test_integer_costs_summing_past_the_float_range():
    # an int phi* entry or decomposition cost past the float range could not
    # be added to inf; each cost alone is in range
    big = 10**308
    with pytest.raises(ValueError, match="integer costs sum past the float range"):
        from_pairs(3, [(1, 2, big), (2, 3, big)])
    with pytest.raises(CostParseError) as err:
        parse_cost_input(f"n 3\n1 2 5\n2 3 {big}\n")
    assert err.value.line == 3
    with pytest.raises(ValueError, match="path weights sum past the float range"):
        DefiningPath((1, 2, 3), (8 * 10**307, 8 * 10**307))
    # floats overflow to inf without an error, as they always did
    assert from_pairs(3, [(1, 2, 1e308), (2, 3, 1e308)]).cost(2, 3) == 1e308


def test_hand_built_raw_tables_follow_the_parse_time_int_rule():
    # all_pairs_optimize on this table used to end in OverflowError
    big = 10**308
    rows = ((0, big, INF), (big, 0, big), (INF, big, 0))
    with pytest.raises(ValueError, match="integer costs sum past the float range"):
        CostMatrix(3, rows)
    with pytest.raises(ValueError, match="integer costs sum past the float range"):
        CostMatrix(3, ((0, big, 0), (big, 0, 0), (0, 0, 0)))
    # the rule counts ints only, as the parser does
    assert CostMatrix(3, ((0, 1e308, 1e308), (1e308, 0, 1), (1e308, 1, 0))).cost(1, 2) == 1e308
    assert CostMatrix(3, ((0, 5, INF), (5, 0, 7), (INF, 7, 0))).cost(2, 3) == 7
    # it bounds the largest int entry and the int spanning forest, each at
    # most the parser's int total: here the entry fits, but the distance
    # from 1 to 3 along the forest does not
    w = int(sys.float_info.max) // 45
    with pytest.raises(ValueError, match="integer costs sum past the float range"):
        CostMatrix(3, ((0, w, INF), (w, 0, w), (INF, w, 0)))


def test_hand_built_optimized_tables_bound_their_int_entries():
    # every DP, chain or merge sum has fewer than 2n entries; mld_cost on
    # this table used to end in OverflowError
    big = 10**308
    rows = [[0 if i == j else big for j in range(5)] for i in range(5)]
    rows[3][4] = rows[4][3] = INF
    with pytest.raises(ValueError, match="integer costs sum past the float range"):
        CostMatrix(5, tuple(map(tuple, rows)), "optimized")

    def uniform(v):
        return tuple(tuple(0 if i == j else v for j in range(5)) for i in range(5))

    # 2n = 10 times the largest int entry may reach the largest double
    top = int(sys.float_info.max) // 10
    assert CostMatrix(5, uniform(top), "optimized").cost(1, 2) == top
    with pytest.raises(ValueError, match="integer costs sum past the float range"):
        CostMatrix(5, uniform(top + 1), "optimized")


def test_is_metric():
    # mod5 satisfies the doubled substitution inequality (3 <= 1 + 2) but not
    # the plain triangle one (3 > 1 + 1), so it is not metric
    assert not is_metric(mod5_raw())
    assert not is_metric(from_pairs(3, [(1, 2, 1), (2, 3, 1), (1, 3, 9)]))
    assert not is_metric(ring10_raw())
    assert is_metric(from_pairs(2, [(1, 2, 7)]))


def test_random_paths_give_metric_tables():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(2, 8)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        weights = tuple(rng.randint(1, 9) for _ in range(n - 1))
        path = DefiningPath(tuple(order), weights)
        m = metric_path(path)
        assert is_metric(m)
        # distances add along the defining order
        for i in range(n - 2):
            a, b, c = order[i], order[i + 1], order[i + 2]
            assert m.cost(a, c) == m.cost(a, b) + m.cost(b, c)


def test_ring10_distance_helper():
    m = ring10_raw()
    assert m.cost(1, 2) == 1 and m.cost(1, 10) == 1
    assert m.cost(2, 9) == INF
    assert ring10_distance(1, 6) == 5
    assert ring10_distance(2, 10) == 2


def test_library_input_checks_raise_their_messages():
    # raise sites no other test reaches; each must keep its class and text
    cases = [
        (lambda: from_pairs(2, [(1, 2, True)]), "bad cost True for pair (1, 2)"),
        (lambda: from_pairs(2, [(1, 2, "1")]), "bad cost '1' for pair (1, 2)"),
        (lambda: CostMatrix(0, ()), "need n >= 1"),
        # a mirror unlike its int partner, or a diagonal entry other than the
        # int 0, would leak its type into phi* and the printed costs
        (lambda: CostMatrix(2, ((0, 1), (True, 0))), "asymmetric entry at (1, 2): 1 and True"),
        (lambda: CostMatrix(2, ((0, 1), (1.0, 0))), "asymmetric entry at (1, 2): 1 and 1.0"),
        (lambda: CostMatrix(2, ((0, 1), (Fraction(1), 0))),
         "asymmetric entry at (1, 2): 1 and Fraction(1, 1)"),
        (lambda: CostMatrix(2, ((0, 1), (Decimal(1), 0))),
         "asymmetric entry at (1, 2): 1 and Decimal('1')"),
        (lambda: CostMatrix(2, ((0, 1), (1, 0.0))), "diagonal entry 0.0 at (2, 2) is not the int 0"),
        (lambda: CostMatrix(2, ((False, 1), (1, 0))), "diagonal entry False at (1, 1) is not the int 0"),
        (lambda: CostMatrix(2, ((0, 1), (1, Decimal(0)))),
         "diagonal entry Decimal('0') at (2, 2) is not the int 0"),
        (lambda: DefiningPath((1,), ()), "a defining path needs at least two vertices"),
        (lambda: from_pairs(0, []), "need n >= 1"),
        (lambda: Cycle((0, 1)), "labels start at 1"),
        (lambda: metric_path_mcd(Cycle((1, 3)), DefiningPath((1, 2), (1,))),
         "cycle label 3 outside 1..2"),
        (lambda: permutation_lower_bound(parse_cycles("(1 3)", 3), [[0, 1], [1, 0]]),
         "cycle label 3 outside 1..2"),
        (lambda: merge_cycles(parse_cycles("(1 2)(3 4)", 4), from_pairs(3, [(1, 2, 1)])),
         "label 4 outside 1..3"),
        # a cost source of the wrong type, which the command line never hands on
        (lambda: merge_cycles(parse_cycles("(1 2)(3 4)", 4), DefiningPath((1, 2, 3, 4), (1, 1, 1))),
         "merge_cycles needs a cost table"),
        (lambda: merge_cycles(parse_cycles("(1 2)(3 4)", 4), DefiningPath((1, 2, 3, 4), (1, 1, 1)), [(1, 3)]),
         "merge_cycles needs a cost table"),
        (lambda: permutation_lower_bound(parse_cycles("(1 2)", 3), from_pairs(3, [(1, 2, 1)])),
         "permutation_lower_bound needs rows of distances or a defining path"),
        (lambda: mcd_exact(parse_cycles("(1 2)", 2), shortest_swaps(from_pairs(3, [(1, 2, 1)]))),
         "cost table is for n=3, permutation has n=2"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as caught:
            call()
        assert (caught.type, str(caught.value)) == (ValueError, message)
