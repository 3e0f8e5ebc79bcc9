"""Mutants of the package, each with the test nodes that must kill it.

    python tests/mutants.py

Each record edits one file under ``src/permsort/``: its ``old`` text,
which occurs exactly once there, becomes ``new``. For each mutant, the
runner copies ``src/`` to a temporary directory, applies the edit there
and runs the record's nodes from the checkout with
``python -m pytest -x -q -p no:cacheprovider`` and the copy first on
PYTHONPATH. The mutant is killed when they fail; a node that pytest
cannot find stops the run. A record with an ``equivalent`` note says why
no valid input tells the mutant from the package, and is not run. Only
the copy is edited. The runner exits 1 if a mutant survives, or if the
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


TRIANGLE = "if all(min(map(add, dist[i], dist[j])) == dist[i][j] for j in range(n) for i in range(j)):"

MUTANTS = [
    Mutant("triangle-le", "optimize.py", TRIANGLE, TRIANGLE.replace(" == ", " <= "),
           ("tests/test_optimize.py::test_triangle_check_reads_the_loops_own_sums",),
           "every pair passes, since the term k = i is d(i, j): the loop never runs"),
    Mutant("triangle-last-column", "optimize.py", TRIANGLE, TRIANGLE.replace("range(n)", "range(n - 1)"),
           ("tests/test_optimize.py::test_triangle_check_reads_the_loops_own_sums",),
           "the pairs (i, n) go unchecked, so a detour to n is missed"),
    Mutant("triangle-skips-inf", "optimize.py", TRIANGLE,
           TRIANGLE.replace("== dist[i][j] for", "== dist[i][j] or dist[i][j] == INF for"),
           ("tests/test_properties.py::test_triangle_engine_equals_the_square_loop",),
           "an unlisted pair with a finite detour keeps distance inf"),
    Mutant("triangle-columns", "optimize.py", TRIANGLE,
           TRIANGLE.replace("dist[j]))", "[row[j] for row in dist]))"),
           ("tests/test_optimize.py::test_triangle_check_reads_the_loops_own_sums",),
           "the check adds column j, as the loop does, instead of row j",
           equivalent="CostMatrix refuses a mirror unlike its partner, so column j is row j, "
                      "entry for entry and type for type"),
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
           "    if len(d) != expected_len:\n"
           "        raise ContractError(f\"{len(d)} transpositions for a {cycle.k}-cycle\")\n", "",
           ("tests/test_contracts.py::test_contract_checks_raise_their_messages",),
           "a short decomposition is reported as a wrong product, not by its length"),
    Mutant("one-cycle-filter", "permutation.py",
           "{x: v for x, v in want if x != v}", "dict(want)",
           ("tests/test_mld.py::test_std_single_label",),
           "a 1-cycle target wants its label moved to itself, so no empty sequence matches it"),
    Mutant("floyd-warshall-le", "optimize.py",
           "map(lt, map(add, repeat(d_ik), row_k[i + 1:]), row_i[i + 1:])",
           "map(lambda x, y: x <= y, map(add, repeat(d_ik), row_k[i + 1:]), row_i[i + 1:])",
           ("tests/test_properties.py::test_triangle_engine_equals_the_square_loop",),
           "a tie relaxes, so next hops (and a tied int or float distance) change"),
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
           ("tests/test_mld.py::test_metric_path_mcd_float_weights_meet_the_floor",),
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
        killed = run(m)
        print(f"{'killed' if killed else 'SURVIVED':<11} {m.name}: {m.reason}", flush=True)
        if not killed:
            survived.append(m.name)
    print(f"{len(survived)} survived, {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
