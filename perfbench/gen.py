"""Seeded input generator for the permsort benchmark.

Every instance is drawn from ``random.Random(f"{workload}/{seed}")``, so the
same workload and seed always give the same files. The program under test
only ever sees the files (and argument strings) written here, in the formats
the project README documents:

    cost file     "n N" then one "a b value" line per pair, "inf" allowed
    permutation   one-line images ("3 1 2") or cycles ("(1 3 2)")

An instance is a dict with ``args`` (the permsort arguments, file names
relative to the instance directory) and ``check`` (what the output checker
needs: the table, the permutation, the bench parameters).

Run ``python3 perfbench/gen.py WORKLOAD SEED DIR`` to write one round of a
workload's inputs by hand.
"""
from __future__ import annotations

import random
import sys
from pathlib import Path

import reference

INF = float("inf")

DECOMPOSE_N = 40
DECOMPOSE_PER_ROUND = 4      # half dense, half sparse
LONG_N = 100
LONG_PER_ROUND = 2           # one n-cycle (mld), one involution (merge)
GRID_SIDE = 32
SWEEP_KMIN, SWEEP_KMAX = 3, 14
SWEEP_TRIALS = 20
SWEEP_PER_ROUND = 4
ORACLE_N = 7
ORACLE_PER_ROUND = 8         # half dense, half sparse
DECOMPOSE_SPARSE_FINITE = 2 * DECOMPOSE_N   # 80 of 780 pairs finite
ORACLE_SPARSE_FINITE = ORACLE_N + 1         # 8 of 21 pairs finite


def dense_table(n: int, rng: random.Random) -> list[list[float]]:
    """Every pair finite, integer costs 1..100."""
    w = _empty(n)
    for a in range(n):
        for b in range(a + 1, n):
            w[a][b] = w[b][a] = rng.randint(1, 100)
    return w


def sparse_table(n: int, rng: random.Random, finite: int) -> list[list[float]]:
    """Connected, integer costs 1..100, ``finite`` finite pairs, the rest inf.

    A random tree keeps every swap reachable, so every permutation has a
    finite sorting cost; extra random edges give the optimizer choices.
    """
    w = _empty(n)
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        w[a][b] = w[b][a] = rng.randint(1, 100)
    placed = n - 1
    while placed < finite:
        a, b = rng.sample(range(n), 2)
        if w[a][b] == INF:
            w[a][b] = w[b][a] = rng.randint(1, 100)
            placed += 1
    return w


def grid_table(n: int, rng: random.Random, side: int = GRID_SIDE) -> list[list[float]]:
    """L1 distances between n distinct integer points of a side x side grid.

    A metric, so optimizing leaves it unchanged and ``--trust-raw`` is exact.
    """
    cells = rng.sample(range(side * side), n)
    pts = [divmod(c, side) for c in cells]
    w = _empty(n)
    for a in range(n):
        for b in range(a + 1, n):
            w[a][b] = w[b][a] = abs(pts[a][0] - pts[b][0]) + abs(pts[a][1] - pts[b][1])
    return w


def _empty(n: int) -> list[list[float]]:
    w = [[INF] * n for _ in range(n)]
    for i in range(n):
        w[i][i] = 0
    return w


def random_permutation(n: int, rng: random.Random) -> tuple[int, ...]:
    """Uniform non-identity permutation of 1..n as one-line images."""
    while True:
        images = list(range(1, n + 1))
        rng.shuffle(images)
        if images != sorted(images):
            return tuple(images)


def from_cycles(n: int, groups: list[list[int]]) -> tuple[int, ...]:
    images = list(range(1, n + 1))
    for g in groups:
        for i, e in enumerate(g):
            images[e - 1] = g[(i + 1) % len(g)]
    return tuple(images)


def n_cycle(n: int, rng: random.Random) -> tuple[tuple[int, ...], list[list[int]]]:
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return from_cycles(n, [labels]), [labels]


def involution(n: int, rng: random.Random) -> tuple[tuple[int, ...], list[list[int]]]:
    """Fixed-point-free (for even n) product of disjoint 2-cycles."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    groups = [labels[i:i + 2] for i in range(0, n - 1, 2)]
    return from_cycles(n, groups), groups


def format_cost_file(w: list[list[float]]) -> str:
    n = len(w)
    lines = [f"n {n}"]
    for a in range(n):
        for b in range(a + 1, n):
            v = w[a][b]
            lines.append(f"{a + 1} {b + 1} {'inf' if v == INF else v}")
    return "\n".join(lines) + "\n"


def format_one_line(images) -> str:
    return " ".join(str(v) for v in images)


def format_cycles(groups: list[list[int]]) -> str:
    return "".join("(" + " ".join(str(e) for e in g) + ")" for g in groups)


def _decompose_cli(rng, d):
    out = []
    for i in range(DECOMPOSE_PER_ROUND):
        kind = "dense" if i % 2 == 0 else "sparse"
        if kind == "dense":
            w = dense_table(DECOMPOSE_N, rng)
        else:
            w = sparse_table(DECOMPOSE_N, rng, DECOMPOSE_SPARSE_FINITE)
        images = random_permutation(DECOMPOSE_N, rng)
        cost, perm = f"d{i}.cost", f"d{i}.perm"
        (d / cost).write_text(format_cost_file(w))
        (d / perm).write_text(format_one_line(images) + "\n")
        out.append({"args": ["decompose", cost, perm, "--expand"],
                    "check": {"kind": kind, "table": w, "images": images,
                              "method": "mld", "expand": True}})
    return out


def _long_cycle(rng, d):
    out = []
    for i in range(LONG_PER_ROUND):
        w = grid_table(LONG_N, rng)
        if i % 2 == 0:
            method, (images, groups) = "mld", n_cycle(LONG_N, rng)
        else:
            method, (images, groups) = "merge", involution(LONG_N, rng)
        cost, perm = f"l{i}.cost", f"l{i}.perm"
        (d / cost).write_text(format_cost_file(w))
        (d / perm).write_text(format_cycles(groups) + "\n")
        args = ["decompose", cost, perm, "--trust-raw"]
        if method == "merge":
            args += ["--method", "merge"]
        out.append({"args": args,
                    "check": {"kind": method, "table": w, "images": images,
                              "method": method, "expand": False}})
    return out


def _paper_sweep(rng, d):
    out = []
    for _ in range(SWEEP_PER_ROUND):
        seed = rng.randrange(10**6)
        out.append({"args": ["bench", str(SWEEP_KMIN), str(SWEEP_KMAX),
                             "--trials", str(SWEEP_TRIALS), "--seed", str(seed)],
                    "check": {"kind": "sweep", "kmin": SWEEP_KMIN, "kmax": SWEEP_KMAX,
                              "trials": SWEEP_TRIALS, "seed": seed}})
    return out


def _oracle(rng, d):
    out = []
    for i in range(ORACLE_PER_ROUND):
        kind = "dense" if i % 2 == 0 else "sparse"
        if kind == "dense":
            w = dense_table(ORACLE_N, rng)
        else:
            w = sparse_table(ORACLE_N, rng, ORACLE_SPARSE_FINITE)
        images = random_permutation(ORACLE_N, rng)
        cost = f"o{i}.cost"
        (d / cost).write_text(format_cost_file(w))
        groups = reference.cycles(images)
        out.append({"args": ["oracle", cost, format_cycles(groups)],
                    "check": {"kind": kind, "table": w, "images": images}})
    return out


WORKLOADS = {
    "decompose-cli": _decompose_cli,
    "long-cycle": _long_cycle,
    "paper-sweep": _paper_sweep,
    "oracle": _oracle,
}


def generate(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write one round of ``workload`` inputs for ``seed`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng, directory)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: gen.py {{{','.join(WORKLOADS)}}} SEED DIR")
    for inst in generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])):
        print("permsort " + " ".join(inst["args"]))
