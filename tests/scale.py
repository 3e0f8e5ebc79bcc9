"""The scale checks: commands on inputs too large for tier-1.

    python tests/scale.py

Each check writes its inputs from fixed seeds into one temporary directory, removed on exit, and
runs ``python -m permsort`` from this checkout under ``timeout``. The script prints each command's
wall time and peak memory, and exits 1 at the first command that runs past its timeout, exits with
another code, writes other stderr or output without its expected text, or peaks over its bound.

A command's peak is the ``ru_maxrss`` that ``os.wait4`` returns for it, never ``RUSAGE_CHILDREN``,
the maximum over every child reaped so far: after the 350 MiB one-pair runs, the path tail's 60 MiB
bound would fail. A child started by vfork keeps this script's own high-water mark through exec, so
no command reads below the script's own peak, printed last.

Pytest does not collect this module.
"""
from __future__ import annotations

import os
import random
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
PERMSORT = [sys.executable, "-m", "permsort"]


def run(argv: list[str], seconds: int, *, code: int = 0, stdout: str | None = None,
        stderr: str | None = None, mib: float | None = None) -> str:
    """Run argv under ``timeout seconds``, its output to files in the current directory, and return
    its stdout. Exit 1 unless it exits with code, its stdout holds the text stdout, its stderr is
    exactly stderr and its peak stays below mib MiB."""
    shown = " ".join("python" if a == sys.executable else a for a in argv)
    start = time.perf_counter()
    pid = os.posix_spawnp("timeout", ["timeout", str(seconds), *argv], ENV, file_actions=[
        (os.POSIX_SPAWN_OPEN, fd, name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        for fd, name in ((1, "stdout"), (2, "stderr"))])
    _, status, usage = os.wait4(pid, 0)
    wall, peak, exit_code = time.perf_counter() - start, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)
    text, errors = Path("stdout").read_text(), Path("stderr").read_text()
    print(f"{wall:6.2f} s {peak:5.0f} MiB  {shown}", flush=True)
    for failed, why in ((exit_code == 124, f"ran past its {seconds} s timeout"),
                        (exit_code != code, f"exit {exit_code}, expected {code}\n{errors}"),
                        (stderr is not None and errors != stderr, f"stderr {errors!r}, expected {stderr!r}"),
                        (stdout is not None and stdout not in text, f"stdout lacks {stdout!r}"),
                        (mib is not None and peak >= mib, f"peak {peak:.0f} MiB, bound {mib} MiB")):
        if failed:
            raise SystemExit(f"{shown}: {why}")
    return text


def line(values) -> str:
    return " ".join(map(str, values)) + "\n"


def write_perm(name: str, rng: random.Random, images: list[int]) -> None:
    """Shuffle images by rng in place and write them in one-line notation."""
    rng.shuffle(images)
    Path(name).write_text(line(images))


def write_path(name: str, rng: random.Random, n: int) -> list[int]:
    """Write a path over 1..n in a drawn order, weights from 1..9; return the order."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    Path(name).write_text(f"path\n{line(order)}{line(rng.randint(1, 9) for _ in range(n - 1))}")
    return order


def write_dense(name: str, rng: random.Random, n: int) -> None:
    """Write the table of every pair a < b with a cost from 1..100, a row at a time."""
    with open(name, "w") as f:
        f.write(f"n {n}\n")
        for a in range(1, n + 1):
            f.write("".join(f"{a} {b} {rng.randint(1, 100)}\n" for b in range(a + 1, n + 1)))


def bench_csv_on_every_cpu_equals_the_one_cpu_csv():
    # -W error fails on Python 3.12's warning about forking a process that has threads; 1,400 trials
    # per size make 16,800, more than a 64 KiB pipe's 4,096 records per child on up to four workers
    for trials in ("20", "1400"):
        bench = [sys.executable, "-W", "error", "-m", "permsort", "bench", "3", "14", "--trials", trials, "--seed", "1"]
        if run(bench, 120) != run(["taskset", "-c", "0", *bench], 120):
            raise SystemExit(f"bench --trials {trials}: the CSV differs on one CPU")


def metric_exact_on_a_100000_label_path():
    # O(k) per cycle and no n^2 table; a quadratic route runs past the timeout
    rng = random.Random(100_000)
    write_path("big.path", rng, 100_000)
    write_perm("big.perm", rng, list(range(1, 100_001)))
    run([*PERMSORT, "decompose", "big.path", "big.perm", "--method", "metric-exact"], 120)


def decompose_on_dense_sparse_and_metric_200_label_tables():
    # one O(n^3) Floyd-Warshall, phi* and DP at scale, under --expand, on a sparse table and under
    # the std chain; on an L1-grid table and a 400-label int path, metric tables on which no
    # relaxation succeeds, under --trust-raw, --expand and optimize; seconds, not minutes
    rng, n = random.Random(200), 200
    write_dense("dense.cost", rng, n)
    write_perm("dense.perm", rng, list(range(1, n + 1)))
    # a random tree, so every swap is reachable, plus n random pairs: 2n - 1 pairs in all
    pairs = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    while len(pairs) < 2 * n - 1:
        pairs.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    Path("sparse.cost").write_text(f"n {n}\n" + "".join(f"{a} {b} {rng.randint(1, 100)}\n" for a, b in sorted(pairs)))
    # L1 distances between distinct points of a 64 x 64 grid: a metric, so the engine keeps it as D
    points = [divmod(c, 64) for c in rng.sample(range(64 * 64), n)]
    Path("grid.cost").write_text(f"n {n}\n" + "".join(
        f"{a + 1} {b + 1} {abs(p[0] - q[0]) + abs(p[1] - q[1])}\n"
        for a, p in enumerate(points) for b, q in enumerate(points) if a < b))
    # a 400-label path with int weights stands for its metric table
    write_perm("long.perm", rng, write_path("long.path", rng, 400))
    for args in ("decompose dense.cost dense.perm --expand", "decompose sparse.cost dense.perm",
                 "decompose dense.cost dense.perm --method std", "decompose grid.cost dense.perm --expand",
                 "optimize grid.cost", "decompose long.path long.perm"):
        run([*PERMSORT, *args.split()], 120)
    # --trust-raw forks the lower bound's Floyd-Warshall on two CPUs, and computes it here on one
    trusted = [*PERMSORT, *"decompose grid.cost dense.perm --trust-raw".split()]
    if run(trusted, 120) != run(["taskset", "-c", "0", *trusted], 120):
        raise SystemExit("decompose --trust-raw: the output differs on one CPU")


def decompose_on_a_dense_table_at_the_table_limit():
    # a 23.6 MB file of n = 2000 labels, read whole and then refused for its one-label permutation:
    # one pass, split into lines a chunk at a time, into one n x n table frozen in place stays near
    # 70 MiB, and a frozen copy of the table (about 100 MiB) fails the 90 MiB bound
    write_dense("big.cost", random.Random(2000), 2000)
    run([*PERMSORT, "decompose", "big.cost", "1"], 120, code=1,
        stderr="error: permutation has n=1, cost table has n=2000\n", mib=90)


def decompose_on_a_one_pair_table_at_the_table_limit():
    # n = 2000 labels with only the pair (1, 2) listed: the phi* passes take a minimum only where D is
    # finite, about 2 s and near 350 MiB (the engine's n x n tables); passes over every cell took ten minutes
    for cost in ("5", "0.5"):
        Path("one-pair.cost").write_text(f"n 2000\n1 2 {cost}\n")
        run([*PERMSORT, "decompose", "one-pair.cost", "(1 2)"], 60, stdout=f"cost: {cost}\n", mib=450)


def decompose_on_a_path_file_with_a_long_tail():
    # an 8 MB path file with 2,000,000 content lines after its weights: the reader refuses it at the
    # first of them, near 30 MiB; a reader that listed them all before counting peaked at 355 MiB
    Path("tail.path").write_text("path\n1 2\n5\n" + "9 9\n" * 2_000_000)
    run([*PERMSORT, "decompose", "tail.path", "2 1"], 60, code=1,
        stderr="error: a path file needs an order line and a weight line\n", mib=60)


def oracle_limit_9_on_dense_sparse_and_unit_cost_tables():
    # the A* closes a small share of the 9! states: under a second on the random tables, about two on
    # the unit-cost 9-cycle, whose floor is weakest; a search that closes most of S_9 runs past the timeout
    rng, n = random.Random(9), 9
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    write_dense("dense.cost", rng, n)
    # the path 1-2-...-9 keeps every swap reachable
    Path("sparse.cost").write_text(f"n {n}\n" + "".join(
        f"{a} {b} {rng.randint(1, 100)}\n" for a, b in pairs if b == a + 1 or rng.random() < 0.3))
    Path("unit.cost").write_text(f"n {n}\n" + "".join(f"{a} {b} 1\n" for a, b in pairs))
    write_perm("random.perm", rng, list(range(1, n + 1)))
    for cost, perm in (("dense.cost", "random.perm"), ("sparse.cost", "random.perm"),
                       ("unit.cost", "(1 2 3 4 5 6 7 8 9)")):
        run([*PERMSORT, "oracle", cost, perm, "--limit", "9"], 60)


CHECKS = [bench_csv_on_every_cpu_equals_the_one_cpu_csv, metric_exact_on_a_100000_label_path,
          decompose_on_dense_sparse_and_metric_200_label_tables, decompose_on_a_dense_table_at_the_table_limit,
          decompose_on_a_one_pair_table_at_the_table_limit, decompose_on_a_path_file_with_a_long_tail,
          oracle_limit_9_on_dense_sparse_and_unit_cost_tables]


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for check in CHECKS:
            print(check.__name__.replace("_", " "), flush=True)
            check()
    print(f"this script's own peak: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB")


if __name__ == "__main__":
    main()
