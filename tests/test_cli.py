"""End-to-end command line checks with pinned output."""
import os
import random
import re
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from textwrap import dedent

import pytest

from permsort import (
    Decomposition,
    DefiningPath,
    Transposition,
    format_cost_file,
    format_path_file,
    from_pairs,
    parse_cycles,
    validate_decomposition,
)
from permsort import ContractError, CostParseError, InfeasibleError, SizeLimitError, bench, cli, oracle
from permsort.bench import bench_rows
from permsort.cli import main

from frozen import mod5_raw, opt4_raw, random_table, ring10_raw, sparse5_raw

PATH5 = DefiningPath((1, 2, 3, 4, 5), (1, 2, 1, 3))


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_traced(capsys, *argv):
    """``run``, and the tracemalloc peak of it. Meanwhile the address space
    is capped 512 MiB past its size, so a table that a broken size guard
    lets through ends in MemoryError, not in the machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as statm:
        cap = int(statm.read().split()[0]) * resource.getpagesize() + (512 << 20)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    return code, out, err, peak


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


def test_negative_zero_costs_print_as_zero(tmp_path, capsys):
    # '-0.0' is a valid zero cost; it is stored as 0.0, so no sum of it
    # prints as '-0.0'
    f = tmp_path / "zeros.cost"
    f.write_text("n 3\n1 2 -0.0\n2 3 -0.0\n1 3 10\n")
    assert run(capsys, "optimize", str(f)) == (0, "1 3: 10 -> 0.0\n1 entries changed\n", "")


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


def test_decompose_metric_exact_large_involution_builds_no_table(tmp_path, capsys, engines_built):
    # 10^4 two-cycles on a 2*10^4-label path: O(k) per cycle, no n^2 path
    # table and no engine. The path is past TABLE_LIMIT, so building its
    # table would exit 4
    rng = random.Random(20_000)
    n = 20_000
    order = list(range(1, n + 1))
    rng.shuffle(order)
    f = tmp_path / "big.path"
    f.write_text(format_path_file(DefiningPath(tuple(order), tuple(rng.randint(1, 9) for _ in range(n - 1)))))
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    images = list(range(1, n + 1))
    for a, b in zip(labels[::2], labels[1::2]):
        images[a - 1], images[b - 1] = b, a
    perm = tmp_path / "involution.perm"
    perm.write_text(" ".join(map(str, images)))
    code, out, err = run(capsys, "decompose", str(f), str(perm), "--method", "metric-exact")
    assert (code, err, len(engines_built)) == (0, "", 0)
    bound = re.search(r"^lower bound: (\S+)$", out, re.M).group(1)
    cost = re.search(r"^cost: (\S+)$", out, re.M).group(1)
    assert float(bound) == int(cost)
    assert "ratio: 1.000000\n" in out


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
    # path tables are wrapped without running CostMatrix._check
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


def _python(*args):
    """A fresh ``python ARGS`` with this checkout's package first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def _imported(*args):
    """Every module a fresh ``python -X importtime ARGS`` imports."""
    proc = _python("-X", "importtime", *args)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_only_the_oracle_command_loads_the_oracle(tmp_path):
    # measured against what the interpreter loads for nothing at all
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    bare = _imported("-c", "pass")
    decompose = _imported("-m", "permsort", "decompose", src, "(1 2 3)(4 5)", "--expand") - bare
    assert "permsort.cli" in decompose
    assert not {"dataclasses", "inspect", "permsort.oracle", "permsort.bench"} & decompose
    oracle = _imported("-m", "permsort", "oracle", src, "(1 2 3)(4 5)") - bare
    assert "permsort.oracle" in oracle
    assert not {"dataclasses", "inspect", "permsort.bench"} & oracle
    sweep = _imported("-m", "permsort", "bench", "3", "4", "--trials", "1") - bare
    assert "permsort.bench" in sweep
    # the hand-made fork stays: a process pool costs up to about 48 ms to import and start
    assert not {"dataclasses", "inspect", "permsort.oracle",
                "multiprocessing", "concurrent.futures"} & sweep


def test_import_permsort_loads_a_module_when_a_name_is_first_read():
    script = dedent("""\
        import sys
        import permsort
        def loaded():
            return {m for m in sys.modules if m.startswith("permsort.")}
        assert not loaded(), loaded()
        assert set(permsort.__all__) <= set(dir(permsort))
        permsort.decompose
        assert "decompose" in vars(permsort)
        assert "permsort.multicycle" in loaded(), loaded()
        assert not {"permsort.oracle", "permsort.bench"} & loaded(), loaded()
        for name in ("costs", "errors", "mld", "multicycle", "optimize", "permutation", "values"):
            assert getattr(permsort, name) is sys.modules["permsort." + name]
        assert not hasattr(permsort, "__main__")    # importing it would run the command line
        print("ok")
    """)
    proc = _python("-c", script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")


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


def test_decompose_std_trust_raw_unreachable(tmp_path, capsys):
    # optimized, the bridge (1 3) makes every swap finite; trusted raw, the
    # ring pairs (2 3) and (4 1) are both inf, and the chain skips only one
    src = cost_file(tmp_path, "bridged", from_pairs(4, [(1, 2, 1), (3, 4, 1), (1, 3, 2)]))
    code, out, err = run(capsys, "decompose", src, "(1 2 3 4)", "--method", "std", "--trust-raw")
    assert (code, out, err) == (3, "", "error: cycle (1 2 3 4) has an unreachable consecutive pair\n")


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


def test_expansion_that_fails_validation_prints_nothing(tmp_path, capsys, monkeypatch):
    # the decomposition's own lines are ready before the expansion is checked
    monkeypatch.setattr(cli, "expand_decomposition",
                        lambda d, engine: Decomposition((Transposition(1, 2),)))
    src = cost_file(tmp_path, "unit3", from_pairs(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)]))
    assert run(capsys, "decompose", src, "(1 2 3)", "--expand") == (
        2, "", "error: expanded decomposition failed validation\n")


def test_forced_join_on_the_identity(tmp_path, capsys):
    # refused like a join on any fixed element, not skipped by the identity
    src = cost_file(tmp_path, "unit3", from_pairs(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)]))
    for perm in ("1 2 3", "1 3 2"):
        assert run(capsys, "decompose", src, perm, "--method", "merge", "--join", "1,2") == (
            1, "", "error: join (1, 2) touches a fixed element\n")


def test_flags_the_method_does_not_read(tmp_path, capsys):
    # refused before any file is read, so a missing file goes unreported
    for costs in (path_file(tmp_path), str(tmp_path / "nope.cost")):
        for flags, err in ((("--method", "metric-exact", "--trust-raw"),
                            "error: --trust-raw applies to optimized-table methods only\n"),
                           (("--method", "metric-exact", "--expand"),
                            "error: --expand applies to optimized-table methods only\n"),
                           (("--join", "1,2"), "error: --join only makes sense with --method merge\n")):
            assert run(capsys, "decompose", costs, "(1 3)", *flags) == (1, "", err), (costs, flags)


def test_parse_error_carries_line_number(tmp_path, capsys):
    for text, error in (("n 3\n1 2 1\n1 3 -4\n", "line 3: bad cost value '-4'"),
                        ("n 3\n1 x 2\n", "line 2: bad pair in '1 x 2'"),
                        ("path\n1 x 3\n1 1\n", "line 2: bad path order '1 x 3'"),
                        ("n 3\n1 2 inf\n2 1 5\n", "line 3: conflicting duplicate for pair (1, 2)")):
        f = tmp_path / "bad"
        f.write_text(text)
        assert run(capsys, "decompose", str(f), "(1 2)") == (1, "", f"error: {error}\n")


def test_missing_cost_file(tmp_path, capsys):
    code, _, err = run(capsys, "optimize", str(tmp_path / "nope.cost"))
    assert code == 1
    assert "cannot read" in err


def test_permutation_directory_is_an_input_error(tmp_path, capsys):
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    code, out, err = run(capsys, "decompose", src, str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {tmp_path}: ")


def test_undecodable_cost_file_is_named(tmp_path, capsys):
    f = tmp_path / "binary.cost"
    f.write_bytes(b"n 2\n1 2 \xff\n")
    code, out, err = run(capsys, "decompose", str(f), "(1 2)")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {f}: ")
    assert "0xff" in err


def test_undecodable_permutation_file_is_named(tmp_path, capsys):
    src = cost_file(tmp_path, "sparse", sparse5_raw())
    f = tmp_path / "binary.perm"
    f.write_bytes(b"2 1 3 4 \xff\n")
    code, out, err = run(capsys, "decompose", src, str(f))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {f}: ")
    assert "0xff" in err


HUGE_TABLE_ERROR = ("error: n=100000 exceeds the cost table limit 2000: "
                    "an n x n table would hold 10000000000 entries\n")


def test_cost_header_past_the_table_limit_allocates_nothing(tmp_path, capsys):
    f = tmp_path / "huge.cost"
    f.write_text("n 100000\n1 2 1\n")
    code, out, err, peak = run_traced(capsys, "decompose", str(f), "(1 2)")
    assert (code, out, err) == (4, "", HUGE_TABLE_ERROR)
    # the refusal takes about 250 kB; one row of the table alone, 800 kB
    assert peak < 800_000


def test_path_file_of_100000_labels_allocates_nothing(tmp_path, capsys):
    n = 100_000
    f = tmp_path / "huge.path"
    f.write_text(format_path_file(DefiningPath(tuple(range(1, n + 1)), (1,) * (n - 1))))
    code, out, err, peak = run_traced(capsys, "decompose", str(f), "(1 2)", "--method", "mld")
    assert (code, out, err) == (4, "", HUGE_TABLE_ERROR)
    # the parsed path takes about 21 MB; 80 rows of the table, 64 MB
    assert peak < 64_000_000


def test_path_file_past_the_table_limit_needs_metric_exact(tmp_path, capsys, monkeypatch):
    # a table past the limit that reaches Floyd-Warshall fails here at once
    # rather than running for minutes
    def built_past_the_limit(raw):
        pytest.fail(f"a table of {raw.n} labels reached shortest_swaps")
    monkeypatch.setattr(cli, "shortest_swaps", built_past_the_limit)
    n = 2001
    f = tmp_path / "long.path"
    f.write_text(format_path_file(DefiningPath(tuple(range(1, n + 1)), (1,) * (n - 1))))
    code, out, err = run(capsys, "decompose", str(f), "(1 2)")
    assert (code, out) == (4, "")
    assert "exceeds the cost table limit 2000" in err
    # metric-exact reads the path and builds no table
    code, out, err = run(capsys, "decompose", str(f), "(1 2)", "--method", "metric-exact")
    assert (code, err) == (0, "")
    assert "cost: 1\n" in out


def test_metric_exact_on_a_table_file(tmp_path, capsys):
    # the identity is refused too: the check runs before its shortcut
    src = cost_file(tmp_path, "unit3", from_pairs(3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)]))
    for perm in ("2 3 1", "1 2 3"):
        code, out, err = run(capsys, "decompose", src, perm, "--method", "metric-exact")
        assert (code, out, err) == (1, "", "error: metric-exact needs a defining-path file\n"), perm


def test_free_swaps_meet_a_zero_bound(tmp_path, capsys):
    src = cost_file(tmp_path, "zero3", from_pairs(3, [(1, 2, 0), (1, 3, 0), (2, 3, 0)]))
    code, out, err = run(capsys, "decompose", src, "(1 2 3)")
    assert (code, err) == (0, "")
    assert out == dedent("""\
        permutation: 2 3 1
        cycles: (1 2 3)
        method: mld
        lower bound: 0.0
        cost: 0
        ratio: 0.000000
        # transpositions are applied right-to-left
        decomposition: (1 2)(2 3)
        """)


def test_float_distances_summing_past_the_largest_double(tmp_path, capsys):
    # the floor halves 1e308 and 1e308 before it adds them
    src = cost_file(tmp_path, "huge", from_pairs(2, [(1, 2, 1e308)]))
    code, out, err = run(capsys, "decompose", src, "(1 2)")
    assert (code, err) == (0, "")
    assert out == dedent("""\
        permutation: 2 1
        cycles: (1 2)
        method: mld
        lower bound: 1e+308
        cost: 1e+308
        ratio: 1.000000
        # transpositions are applied right-to-left
        decomposition: (1 2)
        """)


def test_decomposition_cost_summing_past_the_largest_double(tmp_path, capsys):
    # every piece is finite, their sum is not
    two = cost_file(tmp_path, "two", from_pairs(4, [(1, 2, 1e308), (3, 4, 1e308)]))
    big3 = cost_file(tmp_path, "big3", from_pairs(3, [(1, 2, 1.5e308), (1, 3, 1.5e308),
                                                      (2, 3, 1.5e308)]))
    overflow = "error: decomposition cost sums past the float range\n"
    for argv, err in (
            (("decompose", two, "(1 2)(3 4)"), overflow),
            (("decompose", big3, "(1 2 3)", "--method", "std", "--trust-raw"), overflow),
            (("decompose", two, "(1 2)(3 4)", "--method", "merge"),
             "error: cycle (1 2 3 4) admits no finite-cost decomposition\n")):
        assert run(capsys, *argv) == (3, "", err), argv


def test_forced_join_of_infinite_cost(tmp_path, capsys):
    # trusted raw, (1 3) stays inf though the chain 1-2-3-4 links the cycles
    src = cost_file(tmp_path, "chain4", from_pairs(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)]))
    code, out, err = run(capsys, "decompose", src, "(1 2)(3 4)", "--trust-raw",
                         "--method", "merge", "--join", "1,3")
    assert (code, out, err) == (3, "", "error: join (1, 3) has no finite cost\n")


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


def test_integer_costs_summing_past_the_float_range(tmp_path, capsys):
    # each cost fits a float, but an int sum past the float range cannot be
    # added to inf: an input error on the line that pushes the total over
    cases = ((f"n 3\n1 2 {10**308}\n2 3 {10**308}\n",
              "error: line 2: integer costs sum past the float range\n"),
             (f"path\n1 2 3\n{8 * 10**307} {8 * 10**307}\n",
              "error: line 3: path weights sum past the float range\n"))
    for text, message in cases:
        f = tmp_path / "big"
        f.write_text(text)
        for argv in (("decompose", str(f), "(1 2)"), ("decompose", str(f), "(1 2 3)", "--expand"),
                     ("optimize", str(f)), ("oracle", str(f), "(1 3)")):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (1, "", message)


def test_integer_costs_at_the_float_range_limit(tmp_path, capsys):
    # the largest accepted integer total runs through every command
    top = int(1.7976931348623157e308) // 30
    f = tmp_path / "edge.cost"
    table = f"n 3\n1 2 {top // 2}\n2 3 {top - top // 2}\n"
    argvs = (("optimize", str(f)), ("decompose", str(f), "(1 2 3)", "--expand"),
             ("decompose", str(f), "(1 3)", "--method", "merge", "--expand"),
             ("decompose", str(f), "(1 2 3)", "--trust-raw"), ("oracle", str(f), "(1 2 3)"))
    f.write_text(table)
    once = [run(capsys, *argv) for argv in argvs]
    assert all((code, err) == (0, "") for code, _, err in once)
    # a pair listed again repeats its cost and counts once toward the total
    for again in (f"1 2 {top // 2}\n", f"2 1 {top // 2}\n"):
        f.write_text(table + again)
        assert [run(capsys, *argv) for argv in argvs] == once, again
    f.write_text(f"n 3\n1 2 {top // 2}\n2 3 {top - top // 2 + 1}\n")
    code, _, err = run(capsys, "optimize", str(f))
    assert (code, err) == (1, "error: line 3: integer costs sum past the float range\n")


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


FLOAT6 = """\
n 6
1 2 0.7
1 3 2.5
1 4 1.3
1 5 4.1
1 6 0.2
2 3 1.1
2 4 3.3
2 5 0.9
2 6 2.2
3 4 0.4
3 5 1.7
3 6 5.0
4 5 2.8
4 6 0.6
5 6 1.5
"""

FLOAT5_SPARSE = "n 5\n1 2 0.1\n2 3 0.2\n3 4 0.3\n4 5 0.7\n1 5 2.5\n2 4 0.05\n"

# every pair but (2 3), which is inf and a ring pair of (1 2 3 4 5) and (2 5 3)
RING_HOLE5 = "n 5\n1 2 2\n1 3 5\n1 4 7\n1 5 1\n2 4 3\n2 5 6\n3 4 1\n3 5 4\n4 5 2\n"


def test_oracle_frozen_float_and_ring_hole_tables(tmp_path, capsys):
    # float sums pin the order L's and S's per-cycle pieces are added in:
    # on (1 3)(2 5)(4 6), 1.8 + 0.9 + 0.6 prints as 3.3 the other way round
    cases = [
        (FLOAT6, "(1 2)(3 4)(5 6)", "2 1 4 3 6 5", "(3 4)(5 6)(1 2)",
         "M=2.5999999999999996 L=2.6 S=2.6"),
        (FLOAT6, "(1 3)(2 5)(4 6)", "3 5 1 6 2 4", "(1 6)(4 6)(1 6)(3 4)(4 6)(1 6)(2 5)",
         "M=3.1 L=3.3000000000000003 S=3.3000000000000003"),
        (FLOAT6, "(1 2 3 4)(5 6)", "2 3 4 1 6 5", "(1 6)(3 4)(4 6)(1 6)(1 2)(5 6)",
         "M=3.6 L=3.6 S=3.5999999999999996"),
        (FLOAT6, "(2 5 6 3)(1 4)", "4 5 2 1 6 3", "(1 6)(2 3)(4 6)(1 2)(1 6)(2 5)",
         "M=3.6999999999999997 L=4.1 S=4.4"),
        (FLOAT6, "(1 3 2 5)(4 6)", "3 5 2 6 1 4", "(2 3)(1 2)(4 6)(2 5)",
         "M=3.3 L=3.3000000000000003 S=4.4"),
        (FLOAT5_SPARSE, "(1 3)(2 5 4)", "3 5 1 2 4", "(4 5)(2 4)(1 2)(2 3)(1 2)",
         "M=1.1500000000000001 L=1.15 S=1.15"),
        (RING_HOLE5, "(1 2 3 4 5)", "2 3 4 5 1", "(3 4)(4 5)(1 5)(1 2)", "M=6 L=6 S=6"),
        (RING_HOLE5, "(1 4)(2 5 3)", "4 5 2 1 3", "(1 5)(2 4)(3 4)(1 2)(4 5)", "M=9 L=12 S=12"),
    ]
    for text, cycles, images, witness, chain in cases:
        src = tmp_path / "table.cost"
        src.write_text(text)
        code, out, err = run(capsys, "oracle", str(src), cycles)
        assert (code, err) == (0, ""), cycles
        assert out == f"permutation: {images}\nwitness: {witness}\n{chain} chain OK\n", cycles


def test_oracle_runs_one_floyd_warshall(tmp_path, capsys, engines_built):
    # the oracle's floor and phi* for L and S come from one engine
    for name, table, cycles in [("mod5", mod5_raw(), "(1 2 3 4 5)"),
                                ("sparse", sparse5_raw(), "(1 2 3)(4 5)"),
                                ("huge", from_pairs(2, [(1, 2, 1e308)]), "(1 2)")]:
        engines_built.clear()
        code, _, _ = run(capsys, "oracle", cost_file(tmp_path, name, table), cycles)
        assert (code, len(engines_built)) == (0, 1), name


def test_oracle_unreachable(tmp_path, capsys):
    # an infinite floor; and a finite one, where every route sums past the largest double
    for name, table, cycles in (("holes", from_pairs(3, [(1, 2, 1)]), "(1 3)"),
                                ("two", from_pairs(4, [(1, 2, 1e308), (3, 4, 1e308)]), "(1 2)(3 4)")):
        assert run(capsys, "oracle", cost_file(tmp_path, name, table), cycles) == (
            3, "", "error: target unreachable: some required swap has no finite route\n"), name


def test_oracle_near_the_largest_double(tmp_path, capsys):
    # 1e308 + 1e308 overflows the floor; the search must still find M
    src = cost_file(tmp_path, "huge", from_pairs(2, [(1, 2, 1e308)]))
    code, out, err = run(capsys, "oracle", src, "(1 2)")
    assert (code, err) == (0, "")
    assert out == dedent("""\
        permutation: 2 1
        witness: (1 2)
        M=1e+308 L=1e+308 S=1e+308 chain OK
        """)


def test_oracle_validates_its_witness(tmp_path, capsys, monkeypatch):
    # a search that returns a wrong witness exits 2, also under python -O
    monkeypatch.setattr(oracle, "_replay", lambda start, swaps, closed: (6, Decomposition()))
    src = cost_file(tmp_path, "mod5", mod5_raw())
    code, out, err = run(capsys, "oracle", src, "(1 2 3 4 5)")
    assert (code, out, err) == (2, "", "error: oracle witness failed validation\n")


def test_oracle_size_guard(tmp_path, capsys, engines_built):
    big = from_pairs(8, [(1, 2, 1)])
    src = cost_file(tmp_path, "big", big)
    code, _, err = run(capsys, "oracle", src, "(1 2)")
    assert code == 4
    assert "exceeds the exhaustive-search limit 7" in err
    # the guard runs before the O(n^3) engine
    assert not engines_built


def test_oracle_limit_option(tmp_path, capsys):
    seven = from_pairs(7, [(1, 2, 1)])
    src = cost_file(tmp_path, "seven", seven)
    code, _, err = run(capsys, "oracle", src, "(1 2)", "--limit", "6")
    assert code == 4
    assert "exceeds the exhaustive-search limit 6" in err
    code, out, _ = run(capsys, "oracle", src, "(1 2)", "--limit", "7")
    assert code == 0
    assert "M=1" in out


def test_oracle_answers_a_dense_nine(tmp_path, capsys):
    # past the default guard: the A* closes about a hundred of the 9! states
    raw = random_table(9, random.Random(9))
    src = cost_file(tmp_path, "dense9", raw)
    code, out, err = run(capsys, "oracle", src, "(1 4 7 2 9 3)(5 8)", "--limit", "9")
    assert (code, err) == (0, "")
    _, witness_line, chain_line = out.splitlines()
    pairs = re.findall(r"\((\d+) (\d+)\)", witness_line)
    witness = Decomposition(tuple(Transposition(int(a), int(b)) for a, b in pairs))
    assert validate_decomposition(witness, parse_cycles("(1 4 7 2 9 3)(5 8)", 9))
    m, _, _, verdict = re.fullmatch(r"M=(\S+) L=(\S+) S=(\S+) (.*)", chain_line).groups()
    assert (int(m), verdict) == (witness.cost(raw), "chain OK")


def test_oracle_chain_violation_prints_nothing(tmp_path, capsys, monkeypatch):
    real = cli.decompose

    def l_above_s(p, phi, method, **kwargs):
        d, cost = real(p, phi, method, **kwargs)
        return d, (cost + 5 if method == "mld" else cost)

    monkeypatch.setattr(cli, "decompose", l_above_s)
    src = cost_file(tmp_path, "mod5", mod5_raw())
    assert run(capsys, "oracle", src, "(1 2 3 4 5)") == (
        2, "", "error: M <= L <= S <= 4M failed: M=6 L=13 S=12\n")


def test_oracle_limit_below_one_is_an_input_error(tmp_path, capsys):
    # refused before any file is read, so a missing file is not reported
    src = cost_file(tmp_path, "mod5", mod5_raw())
    for costs in (src, str(tmp_path / "missing.cost")):
        for limit in ("0", "-1"):
            assert run(capsys, "oracle", costs, "(1 3)", "--limit", limit) == (
                1, "", "error: --limit must be at least 1\n"), (costs, limit)


def test_oracle_limit_must_be_an_integer(tmp_path, capsys):
    src = cost_file(tmp_path, "mod5", mod5_raw())
    code, _, err = run(capsys, "oracle", src, "(1 2 3 4 5)", "--limit", "plenty")
    assert code == 1
    assert "argument --limit: invalid int value: 'plenty'" in err


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


@pytest.mark.parametrize("sweep", [(3, 6, 4), (5, 5, 1), (3, 4, 2), (6, 5, 1)])
def test_bench_rows_do_not_depend_on_the_worker_count(monkeypatch, sweep):
    # (5, 5, 1) and (3, 4, 2) have fewer trials than the three CPUs, (6, 5, 1) none
    for seed in (0, 1, 2):
        rows = []
        for cpus in ({0}, {0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            rows.append(bench_rows(*sweep, seed))
        assert rows == [rows[0]] * 3


def _assert_no_child_left():
    # neither running nor a zombie: this process has no child to wait for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


TRIAL_PAIR = bench._trial_pair    # the real one, before any test patches it


def _cheap_pair(kmin, trials, i, seed):
    # a different pair for each trial, and sums that round, so that both
    # the trial each record lands on and the order of the sum show
    return (i / 3, 1 / (i + 1))


def _stub_by_call(parent_steps, child_steps, pair=TRIAL_PAIR):
    """A ``bench._trial_pair`` whose c-th call in a process passes ``pair``'s
    result through step c of that process's list (its last step from then on)."""
    parent = os.getpid()
    calls = []    # a forked child counts its own calls, in its copy

    def stub(kmin, trials, i, seed):
        steps = parent_steps if os.getpid() == parent else child_steps
        calls.append(i)
        return steps[min(len(calls), len(steps)) - 1](pair(kmin, trials, i, seed))
    return stub


def _good(pair):
    return pair


def _pauses(pair):
    time.sleep(0.5)
    return pair


def _fails(pair):
    raise RuntimeError("failed")


# a failing sweep must end within REAP_S seconds; a hung child sleeps just
# past that, so a parent that waited for it fails the bound
REAP_S = 5


def _hangs(pair):
    time.sleep(REAP_S + 1)    # a child the parent waited for would hold it here


def test_bench_recomputes_a_failed_child_stride(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = bench_rows(3, 6, 3, 5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    # each child fails at once, or sends two records and then fails
    for child_steps in ([_fails], [_good, _good, _fails]):
        monkeypatch.setattr(bench, "_trial_pair", _stub_by_call([_good], child_steps))
        assert bench_rows(3, 6, 3, 5) == serial
        _assert_no_child_left()


def test_bench_recomputes_a_child_that_dies_past_a_full_pipe(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(bench, "_trial_pair", _cheap_pair)
    serial = bench_rows(3, 5, 10_000, 0)
    # each child has 10,000 trials and fails after 5,000 records; the parent
    # pauses at its first trial, so each child first fills its 64 KiB pipe
    # (4,096 records) and waits
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(bench, "_trial_pair",
                        _stub_by_call([_pauses, _good], [_good] * 5_000 + [_fails], _cheap_pair))
    assert bench_rows(3, 5, 10_000, 0) == serial
    _assert_no_child_left()


def test_bench_reaps_its_children_when_its_own_stride_raises(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    # the parent fails at once, or mid-sweep, once every child has sent its
    # first record and hangs on its second
    for parent_steps, child_steps in (([_fails], [_hangs]), ([_good, _fails], [_good, _hangs])):
        monkeypatch.setattr(bench, "_trial_pair", _stub_by_call(parent_steps, child_steps))
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="failed"):
            bench_rows(3, 6, 3, 5)
        _assert_no_child_left()
        assert time.perf_counter() - t0 < REAP_S


def test_bench_memory_does_not_grow_with_the_trials(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(bench, "_trial_pair", lambda kmin, trials, i, seed: (0.5, 0.25))
    tracemalloc.start()
    try:
        rows = bench_rows(3, 5, 200_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == [(k, 200_000, 0.5, 0.25) for k in (3, 4, 5)]
    # the pipes are the only buffer; 600,000 pairs held at once take over 100 MB
    assert peak < 8_000_000
    _assert_no_child_left()


def test_bench_prints_its_csv_once(tmp_path, capsys):
    # a child that flushed the stdio buffers it inherited, or ran on into
    # the parent's code, would print twice; each child writes many records
    argv = ["bench", "3", "8", "--trials", "5", "--seed", "1"]
    _, csv, _ = run(capsys, *argv)
    dst = tmp_path / "rows.csv"
    proc = _python("-m", "permsort", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, csv, "")
    proc = _python("-m", "permsort", *argv, "-o", str(dst))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"wrote {dst}\n", "")
    assert dst.read_text() == csv


def test_bench_range_guards(capsys, monkeypatch):
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
    # refused before the sweep is loaded, let alone forked: importing it fails here
    monkeypatch.setitem(sys.modules, "permsort.bench", None)
    code, out, err = run(capsys, "bench", "3", "3", "--trials", "99999999999999999999999")
    assert (code, out, err) == (1, "", f"error: --trials must be at most {sys.maxsize}\n")


def test_usage_errors_exit_one(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "bench", "three", "5")[0] == 1


def test_each_error_class_exits_with_its_code(tmp_path, capsys, monkeypatch):
    # a contract violation cannot be provoked from the command line, so the
    # handler raises each class itself
    src = cost_file(tmp_path, "c", opt4_raw())
    for error, code in [(CostParseError("bad"), 1), (UnicodeDecodeError("utf-8", b"", 0, 1, "bad"), 1),
                        (ContractError("bad"), 2), (InfeasibleError("bad"), 3),
                        (SizeLimitError("bad"), 4)]:
        def fail(args, error=error):
            raise error
        monkeypatch.setattr(cli, "_cmd_optimize", fail)
        assert run(capsys, "optimize", src) == (code, "", f"error: {error}\n")
    monkeypatch.setattr(cli, "_cmd_optimize", lambda args: {}["unlisted"])
    with pytest.raises(KeyError):
        run(capsys, "optimize", src)
