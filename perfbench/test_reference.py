"""Tests of the independent reference against hand-checked values.

The expected numbers are the hand-worked instances of tests/frozen.py
(OPT4_STAR, DP4_C, MOD5_STAR), written out again here so the benchmark
directory stands alone. Run with ``python3 -m pytest perfbench`` or
``python3 perfbench/test_reference.py``.
"""
from __future__ import annotations

import itertools
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import reference as ref  # noqa: E402

INF = ref.INF


def table(n, entries):
    w = [[INF] * n for _ in range(n)]
    for i in range(n):
        w[i][i] = 0
    for a, b, v in entries:
        w[a - 1][b - 1] = w[b - 1][a - 1] = v
    return w


def pairs(w):
    n = len(w)
    return {(a + 1, b + 1): w[a][b] for a in range(n) for b in range(a + 1, n)}


OPT4 = table(4, [(3, 4, 2), (1, 3, 4), (2, 4, 7), (1, 4, 12), (1, 2, 15), (2, 3, 23)])
OPT4_STAR = {(1, 2): 15, (1, 3): 4, (1, 4): 8, (2, 3): 11, (2, 4): 7, (3, 4): 2}

DP4 = table(4, [(1, 2, 5), (1, 3, 10), (1, 4, 3), (2, 3, 2), (2, 4, 3), (3, 4, 9)])
DP4_STAR = {(1, 2): 5, (1, 3): 9, (1, 4): 3, (2, 3): 2, (2, 4): 3, (3, 4): 7}
DP4_C = {(1, 2): 5, (1, 3): 7, (1, 4): 8, (2, 3): 2, (2, 4): 5, (3, 4): 7}

MOD5 = table(5, [e for i in range(1, 6) for e in ((i, i % 5 + 1, 3), (i, (i + 1) % 5 + 1, 1))])
MOD5_STAR = {
    (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (1, 5): 3,
    (1, 3): 1, (2, 4): 1, (3, 5): 1, (1, 4): 1, (2, 5): 1,
}


def test_phi_star_opt4():
    assert pairs(ref.phi_star(OPT4)) == OPT4_STAR


def test_phi_star_mod5():
    assert pairs(ref.phi_star(MOD5)) == MOD5_STAR


def test_interval_table_dp4():
    star = ref.phi_star(DP4)
    assert pairs(star) == DP4_STAR
    c = ref.interval_table([1, 2, 3, 4], star)
    assert {(i + 1, j + 1): c[i][j] for i in range(4) for j in range(i + 1, 4)} == DP4_C
    assert ref.interval_dp([1, 2, 3, 4], star) == 8


def test_product_is_right_to_left():
    # (1 2)(4 5)(3 5)(2 5) multiplies to the 5-cycle (1 2 3 4 5)
    assert ref.product(5, [(1, 2), (4, 5), (3, 5), (2, 5)]) == (2, 3, 4, 5, 1)
    assert ref.product(3, [(1, 2), (2, 3)]) == (2, 3, 1)


def test_floor_chain_and_search_bracket_each_other():
    rng = random.Random(7)
    for _ in range(20):
        w = gen.dense_table(5, rng) if rng.random() < 0.5 else gen.sparse_table(5, rng, 6)
        images = gen.random_permutation(5, rng)
        phi = ref.phi_star(w)
        cyc = ref.cycles(images)
        m = ref.sorting_cost(images, w)
        low = ref.floor(images, ref.distances(w))
        big_l = sum(ref.interval_dp(c, phi) for c in cyc)
        big_s = sum(ref.chain(c, phi) for c in cyc)
        assert low <= m <= big_l <= big_s <= 4 * m


def test_single_swap_search_equals_phi_star():
    # the cheapest way to realise one swap is exactly its optimized cost
    rng = random.Random(3)
    w = gen.sparse_table(6, rng, 7)
    phi = ref.phi_star(w)
    for a, b in itertools.combinations(range(1, 7), 2):
        images = list(range(1, 7))
        images[a - 1], images[b - 1] = b, a
        assert ref.sorting_cost(images, w) == phi[a - 1][b - 1]


def test_kruskal_joins_merge_every_cycle():
    rng = random.Random(5)
    w = gen.grid_table(12, rng, side=6)
    images, groups = gen.involution(12, rng)
    joins = ref.kruskal_joins(images, w)
    assert len(joins) == len(groups) - 1
    assert len(ref.cycles(ref.merged(images, joins))) == 1


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
