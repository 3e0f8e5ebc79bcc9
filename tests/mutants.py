"""Mutants of the package, each with the test nodes that must kill it.

    python tests/mutants.py

Each record edits one file under ``src/permsort/``: its ``old`` text,
which occurs exactly once there, becomes ``new``. For each mutant, the
runner copies ``src/`` to a temporary directory, applies the edit there
and runs the record's nodes from the checkout with
``python -m pytest -x -q -p no:cacheprovider`` and the copy first on
PYTHONPATH. The mutant is killed when they fail; a node that pytest
cannot find stops the run. A record with an ``equivalent`` note says why
no valid input tells the mutant from the package, and is not run; its
nodes run the edited line and pass on the mutant. Only the copy is edited. The runner exits 1 if a mutant survives, or if the
copy is not the package the tests import.

Pytest does not collect this module; ``tests/test_mutants.py`` checks
that every old text still occurs exactly once in its file and every node
names a test function.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str    # under src/permsort/
    old: str
    new: str
    nodes: tuple[str, ...]
    reason: str
    equivalent: str | None = None


MUTANTS = [
    Mutant("table-type-test", "costs.py",
           "if type(v) is not type(w) or v != w:", "if v != w:",
           ("tests/test_costs.py::test_library_input_checks_raise_their_messages",),
           "a 1.0 mirror of an int 1 is accepted and leaks a float into phi*"),
    Mutant("product-positions", "permutation.py",
           "return {x: v for v, x in at.items()}", "return dict(at)",
           ("tests/test_permutation.py::test_product_multiplies_right_to_left",),
           "swapping positions instead of labels multiplies out the inverse"),
    Mutant("validation-past-n", "permutation.py",
           "elif max(moves, default=1) > target.n:", "elif False:",
           ("tests/test_properties.py::test_product_equals_the_fold_of_single_swaps",),
           "a sequence through a label past n that moves it back validates against a permutation of 1..n"),
    Mutant("mld-check-length", "mld.py",
           "    if len(d) != cycle.k - 1:\n"
           "        raise ContractError(f\"{len(d)} transpositions for a {cycle.k}-cycle\")\n", "",
           ("tests/test_contracts.py::test_contract_checks_raise_their_messages",),
           "a short decomposition is reported as a wrong product, not by its length"),
    Mutant("one-cycle-filter", "permutation.py",
           "{x: v for x, v in want if x != v}", "dict(want)",
           ("tests/test_mld.py::test_std_single_label",),
           "a 1-cycle target wants its label moved to itself, so no empty sequence matches it"),
    Mutant("floyd-warshall-le", "optimize.py",
           "if s < row_i[j]:", "if s <= row_i[j]:",
           ("tests/test_optimize.py::test_engine_equals_the_square_loop_at_forty_labels",),
           "a tie relaxes, so next hops (and a tied int or float distance) change"),
    Mutant("floyd-warshall-hop-via", "optimize.py",
           "hop_j[i] = hop_j[k]", "hop_j[i] = via",
           ("tests/test_optimize.py::test_engine_equals_the_square_loop_at_forty_labels",),
           "the mirrored hop from j to i is i's first step towards k, not j's, so paths from j change"),
    Mutant("route-last-v", "optimize.py",
           "v = via.index(min(via))", "v = len(via) - 1 - via[::-1].index(min(via))",
           ("tests/test_properties.py::test_value_only_kernels_equal_the_argmin_passes",),
           "a tie for the once-used edge goes to the last v, and expansions change"),
    Mutant("split-largest-r", "mld.py",
           "r = i + 1 + totals.index(best)", "r = i + len(totals) - totals[::-1].index(best)",
           ("tests/test_properties.py::test_interval_dp_equals_the_quartic_recurrence",),
           "a tie between splits goes to the largest r, and rebuilt sequences change"),
    Mutant("split-largest-s", "mld.py",
           "return next(s for s in range(i, r) if", "return max(s for s in range(i, r) if",
           ("tests/test_properties.py::test_interval_dp_equals_the_quartic_recurrence",),
           "a tie between splits goes to the largest s, and rebuilt sequences change"),
    Mutant("astar-strict-key-bound", "oracle.py",
           "while heap and heap[0][0] <= key_bound:", "while heap and heap[0][0] < key_bound:",
           ("tests/test_properties.py::test_astar_equals_the_reference_dijkstra",),
           "states on the closing bound stay open, so the replayed witness changes"),
    Mutant("float-tolerance-zero", "costs.py",
           "return 1e-9 * max(1.0, *(abs(v) for v in values))", "return 0",
           ("tests/test_mld.py::test_metric_path_mcd_floor_gap_shows_in_several_ring_orders",),
           "float sums compared exactly: a tree that meets the floor up to rounding is refused"),
    Mutant("merge-ties-larger-pair", "multicycle.py",
           "for _, a, b in links:", "for _, a, b in sorted(links, key=lambda x: (x[0], -x[1], -x[2])):",
           ("tests/test_multicycle.py::test_merge_greedy_two_rings",),
           "a tie between joins goes to the larger pair, and merged sequences change"),
    Mutant("format-negative-zero", "costs.py",
           "return repr(v + 0)", "return repr(v)",
           ("tests/test_costs.py::test_a_hand_built_negative_zero_prints_as_zero",),
           "a hand-built -0.0 prints as -0.0"),
    Mutant("infeasible-exit-one", "cli.py",
           "InfeasibleError: EXIT_INFEASIBLE,", "InfeasibleError: EXIT_INPUT,",
           ("tests/test_cli.py::test_infeasible_exit",),
           "an infeasible permutation exits 1, the input-error code"),
    Mutant("chunk-cut-after-cr", "costs.py",
           'cut = text.find("\\n", start + _CHUNK) + 1 or len(text)',
           'cut = text.find("\\r", start + _CHUNK) + 1 or len(text)',
           ("tests/test_properties.py::test_chunked_lines_equal_the_whole_split",),
           'a cut between "\\r" and "\\n" splits one line break in two'),
    Mutant("merge-prefix-not-reversed", "multicycle.py",
           "seq += reversed(tau.transpositions)", "seq += tau.transpositions",
           ("tests/test_multicycle.py::test_merged_decompose_starts_with_the_joins_inverses",),
           "joins that share a label are undone in the wrong order, so the product is not p"),
    Mutant("rebuild-short-interval", "mld.py",
           "= [(1, len(labels))]", "= [(1, len(labels) - 1)]",
           ("tests/test_mld.py::test_dp4_reconstruction", "tests/test_mld.py::test_metric_path_mcd_frozen"),
           "the last position is never split off, so the sequence misses its swaps and is refused"),
    Mutant("path-reads-two-lines", "costs.py",
           "islice(lines, 3)", "islice(lines, 2)",
           ("tests/test_costs.py::test_a_path_file_is_refused_at_its_first_line_past_the_weights",),
           "a content line after the weights is never read, and the path is accepted"),
    Mutant("bench-wrong-index", "bench.py",
           "yield _trial_pair(kmin, trials, i, seed)", "yield _trial_pair(kmin, trials, i + workers, seed)",
           ("tests/test_cli.py::test_bench_recomputes_a_failed_child_stride",),
           "a trial computed here is another trial of the same worker"),
    Mutant("bench-single-floats", "bench.py",
           'RECORD = struct.Struct("dd")', 'RECORD = struct.Struct("ff")',
           ("tests/test_cli.py::test_bench_rows_do_not_depend_on_the_worker_count",),
           "a child's pairs are rounded to single precision, so the rows depend on the CPU count"),
    Mutant("bench-short-read-yields-nothing", "bench.py",
           "        else:    # a short read is the end of a child that died\n"
           "            pipes[w] = None\n",
           "        elif pipes[w]:\n"
           "            pipes[w] = None\n"
           "        else:\n",
           ("tests/test_cli.py::test_bench_recomputes_a_failed_child_stride",),
           "the trial of a child's short read is skipped, so every later pair shifts by one"),
    Mutant("bench-no-sigkill", "bench.py",
           "os.kill(pid, signal.SIGKILL)", "pass",
           ("tests/test_cli.py::test_bench_reaps_its_children_when_its_own_stride_raises",),
           "a failing sweep waits for each child's current trial, here a sleep just past the bound, "
           "before it raises"),
    Mutant("astar-edge-weight-twice", "oracle.py",
           "ng = g + w", "ng = g + w + w",
           ("tests/test_properties.py::test_astar_equals_the_reference_dijkstra",),
           "the search prices each swap twice and closes other states, so the replayed witness changes"),
    Mutant("std-divided-by-five", "mld.py",
           "total += ring[t]", "total += ring[t] / 5",
           ("tests/test_properties.py::test_bounds_chain_around_the_exhaustive_minimum",),
           "S is reported at a fifth of the chain's cost, below M"),
    Mutant("dp-other-association", "mld.py",
           "map(add, map(add, bi, reversed(cj)), pi)", "map(add, bi, map(add, reversed(cj), pi))",
           ("tests/test_outputs.py::test_output_matches_the_recording"
            "[decompose tenths.cost p14.perm --method merge]",),
           "the interval DP adds its three terms in another order, so float totals change their bytes"),
    Mutant("merge-order", "multicycle.py",
           "tuple(moves.get(v, v) for v in p.images)",
           "tuple(p.images[moves.get(v, v) - 1] for v in range(1, p.n + 1))",
           ("tests/test_outputs.py::test_output_matches_the_recording"
            "[decompose dense12.cost p12.perm --method merge]",),
           "the merged cycle is p * tau', not tau' * p, so the merged sequence changes"),
    Mutant("path-label-range", "optimize.py",
           '"""Labels of a cheapest ordinary path from a to b, both ends included."""\n'
           "        if not (1 <= a <= self.raw.n and 1 <= b <= self.raw.n):",
           '"""Labels of a cheapest ordinary path from a to b, both ends included."""\n'
           "        if False:",
           ("tests/test_optimize.py::test_path_and_route_refuse_labels_outside_the_table",),
           "label 0 reads label n's row through index -1, and label n + 1 ends in an IndexError"),
    Mutant("route-label-range", "costs.py",
           "if not (1 <= a <= self.n and 1 <= b <= self.n):", "if False:",
           ("tests/test_optimize.py::test_path_and_route_refuse_labels_outside_the_table",),
           "route reads its pair through CostMatrix.cost: label 0 reads label n's rows through "
           "index -1, and label n + 1 ends in an IndexError"),
    Mutant("phi-skip-raw-row", "optimize.py",
           "for dist_a, row in zip(self.dist, twice)]", "for dist_a, row in zip(self.raw.table, twice)]",
           ("tests/test_outputs.py::test_output_matches_the_recording[optimize sparse40.cost]",),
           "the phi* passes skip every cell two or more edges apart, so those entries stay inf"),
    Mutant("merge-needs-no-table", "multicycle.py",
           "    if not isinstance(phi_star, CostMatrix):\n"
           '        raise ValueError("merge_cycles needs a cost table")\n', "",
           ("tests/test_costs.py::test_library_input_checks_raise_their_messages",),
           "a defining path handed to merge_cycles ends in an AttributeError"),
    Mutant("lower-bound-takes-a-table", "multicycle.py",
           "elif isinstance(dist, Sequence):", "elif True:",
           ("tests/test_costs.py::test_library_input_checks_raise_their_messages",),
           "a cost table handed to permutation_lower_bound ends in a TypeError"),
    Mutant("decompose-path-one-way", "multicycle.py",
           'if (method == "metric-exact") != isinstance(costs, DefiningPath):',
           'if (method == "metric-exact") > isinstance(costs, DefiningPath):',
           ("tests/test_multicycle.py::test_a_cost_source_of_the_wrong_type_is_refused",),
           "a defining path reaches the table routes of mld, std and merge"),
    Mutant("optimized-needs-no-table", "mld.py",
           'if not isinstance(costs, CostMatrix) or costs.kind != "optimized":',
           'if costs.kind != "optimized":',
           ("tests/test_multicycle.py::test_a_cost_source_of_the_wrong_type_is_refused",),
           "a defining path handed to min_cost_mld or std_decomposition ends in an AttributeError"),
    Mutant("metric-path-takes-a-table", "mld.py",
           "    if not isinstance(path, DefiningPath):\n"
           '        raise ValueError("metric_path_mcd needs a defining path, not a cost table")\n', "",
           ("tests/test_multicycle.py::test_a_cost_source_of_the_wrong_type_is_refused",),
           "a cost table handed to metric_path_mcd ends in an AttributeError"),
    Mutant("table-limit-refused", "costs.py",
           "if n > TABLE_LIMIT:", "if n >= TABLE_LIMIT:",
           ("tests/test_costs.py::test_the_table_limit_itself_is_allowed",),
           "a table of exactly TABLE_LIMIT labels is refused"),
    Mutant("bench-parent-runs-the-child", "bench.py",
           "if pid == 0:", "if pid != 0:",
           ("tests/test_cli.py::test_bench_rows_do_not_depend_on_the_worker_count",),
           "the parent runs a worker's stride and leaves by os._exit, while the child returns into the caller"),
    Mutant("std-skips-the-cheapest-pair", "mld.py",
           "skip = max(range(k),", "skip = min(range(k),",
           ("tests/test_mld.py::test_the_unit_path_rotation_is_tight_for_l_le_2m_and_s_le_4m",),
           "the chain skips its cheapest consecutive pair, so S rises above its closed form"),
    Mutant("trusted-bound-always-recomputed", "cli.py",
           "    if lower_bound is None:\n", "    if True:\n",
           ("tests/test_cli.py::test_decompose_runs_one_floyd_warshall",),
           "decompose --trust-raw runs a second Floyd-Warshall in this process after its child sent the bound"),
    Mutant("trusted-fork-on-one-cpu", "cli.py",
           "or len(os.sched_getaffinity(0)) < 2):", "or len(os.sched_getaffinity(0)) >= 2):",
           ("tests/test_cli.py::test_decompose_runs_one_floyd_warshall",),
           "decompose --trust-raw forks on one CPU and computes its bound here on two"),
    Mutant("trusted-child-left-running", "cli.py",
           "        if child:\n"
           "            import signal    # only on this path\n"
           "            os.kill(child[0], signal.SIGKILL)\n"
           "            _reap(child)\n", "",
           ("tests/test_cli.py::test_trusted_decompose_kills_its_child_when_the_decomposition_fails",),
           "a failed decomposition leaves, and its forked child runs on past the command"),
    Mutant("table-top-ties", "costs.py",
           "if isinstance(v, int) and v > top:", "if isinstance(v, int) and v >= top:",
           ("tests/test_cli.py::test_integer_costs_at_the_float_range_limit",),
           "the running maximum of the int costs is replaced by an equal value",
           equivalent="a tie stores the value the maximum already holds, so top ends the same"),
    Mutant("cartesian-tree-ties", "mld.py",
           "while stack and key[stack[-1]] > key[i]:", "while stack and key[stack[-1]] >= key[i]:",
           ("tests/test_properties.py::test_metric_path_mcd_equals_the_segment_tree_route",),
           "equal path positions would pop into the left subtree",
           equivalent="the keys are the positions of distinct labels along the path, so no two are equal"),
]


def apply(src: Path, m: Mutant) -> None:
    path = src / "permsort" / m.file
    text = path.read_text()
    if text.count(m.old) != 1:
        raise SystemExit(f"{m.name}: old text occurs {text.count(m.old)} times in {m.file}")
    path.write_text(text.replace(m.old, m.new))


def run(m: Mutant) -> bool:
    """True when the nodes fail on the mutant: killed."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        apply(src, m)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])), PYTHONDONTWRITEBYTECODE="1")
        imported = subprocess.run([sys.executable, "-c", "import permsort; print(permsort.__file__)"],
                                  cwd=ROOT, env=env, capture_output=True, text=True).stdout.strip()
        if not imported.startswith(str(src)):
            raise SystemExit(f"the tests import permsort from {imported or 'nowhere'}, not the copy")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m.nodes],
                              cwd=ROOT, env=env, capture_output=True, text=True)
        if proc.returncode not in (0, 1):    # a missing node or a usage error: no verdict
            raise SystemExit(f"{m.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
        return proc.returncode == 1


def main() -> int:
    survived = []
    start = time.perf_counter()
    for m in MUTANTS:
        if m.equivalent:
            print(f"equivalent  {m.name}: {m.equivalent}")
            continue
        t0 = time.perf_counter()
        killed = run(m)
        print(f"{'killed' if killed else 'SURVIVED':<11} {time.perf_counter() - t0:5.1f} s  {m.name}: {m.reason}",
              flush=True)
        if not killed:
            survived.append(m.name)
    print(f"{len(survived)} survived, {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
