"""End-to-end command line checks with pinned output."""
from textwrap import dedent

from permsort import DefiningPath, format_cost_file, format_path_file, from_pairs
from permsort.cli import bench_rows, main

from frozen import mod5_raw, opt4_raw, ring10_raw, sparse5_raw

PATH5 = DefiningPath((1, 2, 3, 4, 5), (1, 2, 1, 3))


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def cost_file(tmp_path, name, matrix):
    f = tmp_path / name
    f.write_text(format_cost_file(matrix))
    return str(f)


def path_file(tmp_path):
    f = tmp_path / "path5.path"
    f.write_text(format_path_file(PATH5))
    return str(f)


def test_optimize_reports_changes(tmp_path, capsys):
    code, out, err = run(capsys, "optimize", cost_file(tmp_path, "t", opt4_raw()))
    assert code == 0
    assert err == ""
    assert out == "1 4: 12 -> 8\n2 3: 23 -> 11\n2 entries changed\n"


def test_optimize_writes_output_file(tmp_path, capsys):
    dst = tmp_path / "out.cost"
    src = cost_file(tmp_path, "t", opt4_raw())
    code, out, _ = run(capsys, "optimize", src, "-o", str(dst))
    assert code == 0
    assert out.endswith(f"wrote {dst}\n")
    text = dst.read_text()
    assert "1 4 8" in text
    assert "2 3 11" in text
    assert text.startswith("n 4\n")


def test_optimize_path_distances_are_fixed_point(tmp_path, capsys):
    code, out, _ = run(capsys, "optimize", path_file(tmp_path))
    assert code == 0
    assert out == "0 entries changed\n"


def test_decompose_with_expansion(tmp_path, capsys):
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    code, out, err = run(capsys, "decompose", src, "(1 2 3 4 5)", "--expand")
    assert (code, err) == (0, "")
    assert out == dedent("""\
        permutation: 2 3 4 5 1
        cycles: (1 2 3 4 5)
        method: mld
        lower bound: 103.5
        cost: 105
        ratio: 1.014493
        # transpositions are applied right-to-left
        decomposition: (1 2)(4 5)(3 5)(2 5)
        # same permutation in raw swaps, applied right-to-left
        expansion: (1 2)(2 4)(2 5)(2 4)(3 5)(2 5)
        expansion cost: 105
        """)


def test_decompose_merge_with_join(tmp_path, capsys):
    src = cost_file(tmp_path, "ring", ring10_raw())
    code, out, _ = run(capsys, "decompose", src, "7 8 9 10 1 2 3 4 5 6",
                       "--method", "merge", "--join", "1,2")
    assert code == 0
    assert out == dedent("""\
        permutation: 7 8 9 10 1 2 3 4 5 6
        cycles: (1 7 3 9 5)(2 8 4 10 6)
        method: merge
        lower bound: 20.0
        cost: 38
        ratio: 1.900000
        # transpositions are applied right-to-left
        decomposition: (1 2)(1 7)(5 9)(3 5)(6 10)(4 6)(6 8)(5 6)(2 5)(6 7)
        """)


def test_decompose_merge_greedy_matches_join(tmp_path, capsys):
    src = cost_file(tmp_path, "ring", ring10_raw())
    forced = run(capsys, "decompose", src, "7 8 9 10 1 2 3 4 5 6",
                 "--method", "merge", "--join", "1,2")
    greedy = run(capsys, "decompose", src, "7 8 9 10 1 2 3 4 5 6", "--method", "merge")
    assert greedy == forced


def test_decompose_metric_exact(tmp_path, capsys):
    code, out, _ = run(capsys, "decompose", path_file(tmp_path), "(1 2 3 4 5)",
                       "--method", "metric-exact")
    assert code == 0
    assert out == dedent("""\
        permutation: 2 3 4 5 1
        cycles: (1 2 3 4 5)
        method: metric-exact
        lower bound: 7.0
        cost: 7
        ratio: 1.000000
        # transpositions are applied right-to-left
        decomposition: (1 2)(2 3)(3 4)(4 5)
        """)


def test_decompose_metric_exact_unit_path_400_cycle(tmp_path, capsys):
    # the path metric is its own distance table: no O(n^3) pass for the bound
    n = 400
    f = tmp_path / "unit.path"
    f.write_text(format_path_file(DefiningPath(tuple(range(1, n + 1)), (1,) * (n - 1))))
    cycle = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    code, out, err = run(capsys, "decompose", str(f), cycle, "--method", "metric-exact")
    assert (code, err) == (0, "")
    assert "lower bound: 399.0\ncost: 399\nratio: 1.000000\n" in out


def test_decompose_runs_one_floyd_warshall(tmp_path, capsys, engines_built):
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    for method in ("mld", "std", "merge"):
        for flags in ((), ("--trust-raw",), ("--expand",), ("--trust-raw", "--expand")):
            engines_built.clear()
            code, _, _ = run(capsys, "decompose", src, "(1 2 3)(4 5)", "--method", method, *flags)
            assert (code, len(engines_built)) == (0, 1), (method, flags)
    engines_built.clear()
    code, _, _ = run(capsys, "decompose", path_file(tmp_path), "(1 2 3 4 5)",
                     "--method", "metric-exact")
    assert (code, len(engines_built)) == (0, 0)


def test_commands_check_no_table_twice(tmp_path, capsys, tables_checked):
    # the parser and from_pairs check each entry once; phi*, relabels and
    # path tables are wrapped without running CostMatrix.__post_init__
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    runs = [("decompose", src, "(1 2 3)(4 5)", "--method", method, *flags)
            for method in ("mld", "std", "merge")
            for flags in ((), ("--trust-raw",), ("--expand",))]
    runs += [
        ("decompose", path_file(tmp_path), "(1 2 3 4 5)", "--method", "metric-exact"),
        ("optimize", src),
        ("bench", "3", "14", "--trials", "2"),
        ("oracle", src, "(1 2 3)(4 5)"),
    ]
    for argv in runs:
        tables_checked.clear()
        code, _, _ = run(capsys, *argv)
        assert (code, len(tables_checked)) == (0, 0), argv


def test_decompose_identity(tmp_path, capsys):
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    code, out, _ = run(capsys, "decompose", src, "1 2 3 4 5")
    assert code == 0
    assert out == dedent("""\
        permutation: 1 2 3 4 5
        cycles: ()
        method: mld
        lower bound: 0.0
        cost: 0
        # transpositions are applied right-to-left
        decomposition: (none)
        """)


def test_decompose_trust_raw(tmp_path, capsys):
    # the cheap detours all cross on the circle, so a raw-table tree must
    # buy two expensive edges and expansion has nothing left to rewrite
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    code, out, _ = run(capsys, "decompose", src, "(1 2 3 4 5)", "--trust-raw", "--expand")
    assert code == 0
    assert "cost: 202\n" in out
    assert "expansion: (1 2)(4 5)(3 5)(2 5)\n" in out
    assert "expansion cost: 202\n" in out


def test_decompose_std_method(tmp_path, capsys):
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    code, out, _ = run(capsys, "decompose", src, "(1 2 3 4 5)", "--method", "std")
    assert code == 0
    assert "method: std\n" in out
    assert "cost: 111\n" in out


def test_decompose_permutation_from_file(tmp_path, capsys):
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    inline = run(capsys, "decompose", src, "(1 2 3 4 5)")
    pf = tmp_path / "perm.txt"
    pf.write_text("(1 2 3 4 5)\n")
    assert run(capsys, "decompose", src, str(pf)) == inline


def test_join_requires_merge_method(tmp_path, capsys):
    src = cost_file(tmp_path, "ring", ring10_raw())
    code, _, err = run(capsys, "decompose", src, "7 8 9 10 1 2 3 4 5 6", "--join", "1,2")
    assert code == 1
    assert "--join only makes sense with --method merge" in err


def test_join_within_one_cycle(tmp_path, capsys):
    src = cost_file(tmp_path, "ring", ring10_raw())
    code, _, err = run(capsys, "decompose", src, "7 8 9 10 1 2 3 4 5 6",
                       "--method", "merge", "--join", "1,7")
    assert code == 1
    assert "does not link two separate cycles" in err


def test_join_parse_errors(tmp_path, capsys):
    src = cost_file(tmp_path, "ring", ring10_raw())
    args = ("decompose", src, "7 8 9 10 1 2 3 4 5 6", "--method", "merge", "--join")
    for joins, fragment in (("1,2,3", "expected two labels"),
                            ("a,b", "labels must be integers"),
                            ("", "empty join list")):
        code, _, err = run(capsys, *args, joins)
        assert code == 1
        assert fragment in err


def test_expand_rejected_for_metric_exact(tmp_path, capsys):
    code, out, err = run(capsys, "decompose", path_file(tmp_path), "(1 2 3 4 5)",
                       "--method", "metric-exact", "--expand")
    assert code == 1
    assert out == ""
    assert "--expand applies to optimized-table methods only" in err


def test_parse_error_carries_line_number(tmp_path, capsys):
    f = tmp_path / "bad.cost"
    f.write_text("n 3\n1 2 1\n1 3 -4\n")
    code, _, err = run(capsys, "decompose", str(f), "(1 2)")
    assert code == 1
    assert "line 3" in err


def test_missing_cost_file(tmp_path, capsys):
    code, _, err = run(capsys, "optimize", str(tmp_path / "nope.cost"))
    assert code == 1
    assert "cannot read" in err


def test_permutation_directory_is_an_input_error(tmp_path, capsys):
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    code, out, err = run(capsys, "decompose", src, str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {tmp_path}: ")


def test_long_inline_permutation(tmp_path, capsys):
    # longer than a file name may be, so it can only be inline text
    n = 120
    images = " ".join(str(i % n + 1) for i in range(1, n + 1))
    src = cost_file(tmp_path, "chain", from_pairs(n, [(i, i + 1, 1) for i in range(1, n)]))
    code, out, _ = run(capsys, "decompose", src, images, "--method", "std")
    assert code == 0
    assert out.startswith(f"permutation: {images}\n")


def test_overflowing_cost_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "big.cost"
    f.write_text("n 3\n1 2 1\n2 3 1e400\n")
    code, out, err = run(capsys, "optimize", str(f))
    assert (code, out) == (1, "")
    assert "line 3" in err


def test_path_weights_summing_past_the_float_range(tmp_path, capsys):
    # float weights whose running sum becomes inf, and exact integer weights
    # whose sum passes the largest double: both are input errors
    for name, text in (("float.path", "path\n1 2 3 4\n1e308 1e308 1e308\n"),
                       ("int.path", f"path\n1 2 3\n{10**308} {10**308}\n")):
        f = tmp_path / name
        f.write_text(text)
        code, out, err = run(capsys, "decompose", str(f), "(1 2 3)")
        assert (code, out) == (1, "")
        assert err == "error: line 3: path weights sum past the float range\n"


def test_repeated_cycle_label_exits_one(tmp_path, capsys):
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    for text in ("(1 2 1 2)", "(1 1)"):
        code, out, err = run(capsys, "decompose", src, text)
        assert (code, out) == (1, "")
        assert "repeated label in cycle" in err


def test_empty_cycle_is_the_identity(tmp_path, capsys):
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    code, out, _ = run(capsys, "decompose", src, "()")
    assert code == 0
    assert "cycles: ()\n" in out
    assert "cost: 0\n" in out


def test_mismatched_sizes(tmp_path, capsys):
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    code, _, err = run(capsys, "decompose", src, "2 1 3")
    assert code == 1
    assert "permutation has n=3, cost table has n=5" in err


def test_infeasible_exit(tmp_path, capsys):
    holes = from_pairs(4, [(1, 2, 1), (3, 4, 1)])
    src = cost_file(tmp_path, "holes", holes)
    code, _, err = run(capsys, "decompose", src, "(1 3)")
    assert code == 3
    assert err.startswith("error: ")


def test_oracle_output(tmp_path, capsys):
    src = cost_file(tmp_path, "mod5", mod5_raw())
    code, out, _ = run(capsys, "oracle", src, "(1 2 3 4 5)")
    assert code == 0
    assert out == dedent("""\
        permutation: 2 3 4 5 1
        witness: (1 3)(2 4)(1 4)(2 5)(2 4)(3 5)
        M=6 L=8 S=12 chain OK
        """)


def test_oracle_unreachable(tmp_path, capsys):
    holes = from_pairs(3, [(1, 2, 1)])
    src = cost_file(tmp_path, "holes", holes)
    code, _, err = run(capsys, "oracle", src, "(1 3)")
    assert code == 3
    assert "target unreachable" in err


def test_oracle_size_guard(tmp_path, capsys):
    big = from_pairs(8, [(1, 2, 1)])
    src = cost_file(tmp_path, "big", big)
    code, _, err = run(capsys, "oracle", src, "(1 2)")
    assert code == 4
    assert "exceeds the exhaustive-search limit 7" in err


def test_oracle_env_limit(tmp_path, capsys, monkeypatch):
    seven = from_pairs(7, [(1, 2, 1)])
    src = cost_file(tmp_path, "seven", seven)
    monkeypatch.setenv("PERMSORT_LIMIT", "6")
    code, _, err = run(capsys, "oracle", src, "(1 2)")
    assert code == 4
    # an explicit --limit wins over the environment
    code, out, _ = run(capsys, "oracle", src, "(1 2)", "--limit", "7")
    assert code == 0
    assert "M=1" in out


def test_oracle_env_limit_must_be_integer(tmp_path, capsys, monkeypatch):
    src = cost_file(tmp_path, "mod5", mod5_raw())
    monkeypatch.setenv("PERMSORT_LIMIT", "plenty")
    code, _, err = run(capsys, "oracle", src, "(1 2 3 4 5)")
    assert code == 1
    assert "PERMSORT_LIMIT must be an integer" in err


def test_bench_frozen_rows(capsys):
    code, out, err = run(capsys, "bench", "3", "5", "--trials", "20", "--seed", "7")
    assert (code, err) == (0, "")
    assert out == dedent("""\
        k,trials,mean_raw,mean_opt
        3,20,0.769807,0.769807
        4,20,0.947875,0.947118
        5,20,0.966796,0.943808
        """)


def test_bench_deterministic_and_file_output(tmp_path, capsys):
    first = run(capsys, "bench", "3", "4", "--trials", "5")
    assert first == run(capsys, "bench", "3", "4", "--trials", "5")
    dst = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "bench", "3", "4", "--trials", "5", "-o", str(dst))
    assert code == 0
    assert out == f"wrote {dst}\n"
    assert dst.read_text() == first[1]


def test_optimize_output_to_a_missing_directory(tmp_path, capsys):
    dst = tmp_path / "no" / "such" / "out.cost"
    code, out, err = run(capsys, "optimize", cost_file(tmp_path, "t", opt4_raw()), "-o", str(dst))
    # the write comes first, so nothing is printed when it fails
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {dst}: ")


def test_bench_output_to_a_directory(tmp_path, capsys):
    code, out, err = run(capsys, "bench", "3", "4", "--trials", "2", "-o", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {tmp_path}: ")


def test_bench_rows_optimized_never_worse():
    for k, trials, mean_raw, mean_opt in bench_rows(3, 6, 10, 42):
        assert trials == 10
        assert mean_opt <= mean_raw


def test_bench_range_guards(capsys):
    code, _, err = run(capsys, "bench", "2", "5")
    assert code == 1
    assert "need 3 <= kmin <= kmax <= 14" in err
    code, _, err = run(capsys, "bench", "6", "5")
    assert code == 1
    code, _, err = run(capsys, "bench", "3", "15")
    assert code == 1
    code, _, err = run(capsys, "bench", "3", "5", "--trials", "0")
    assert code == 1
    assert "--trials must be at least 1" in err


def test_usage_errors_exit_one(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "bench", "three", "5")[0] == 1
