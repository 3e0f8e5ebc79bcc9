"""Shared hand-checked instances.

Every value here was worked out by hand (or by a slow independent method)
and is written out literally, so a regression shows up as a diff against
these numbers rather than against a recomputed quantity.
"""
from permsort import from_pairs


def pairs_dict(matrix):
    """{(a, b): cost} for every pair a < b of a table."""
    return {(a, b): v for a, b, v in matrix.entries()}


# Four labels; the sweep rewrites the two expensive swaps through cheap ones:
# (1 4) via (3 4)(1 3)(3 4) for 8, (2 3) via (3 4)(2 4)(3 4) for 11.
OPT4_ENTRIES = [
    (3, 4, 2), (1, 3, 4), (2, 4, 7), (1, 4, 12), (1, 2, 15), (2, 3, 23),
]
OPT4_STAR = {
    (1, 2): 15, (1, 3): 4, (1, 4): 8, (2, 3): 11, (2, 4): 7, (3, 4): 2,
}


def opt4_raw():
    return from_pairs(4, OPT4_ENTRIES)


# Interval-DP worked instance: decompose (1 2 3 4) over this table.
DP4_ENTRIES = [
    (1, 2, 5), (1, 3, 10), (1, 4, 3), (2, 3, 2), (2, 4, 3), (3, 4, 9),
]
DP4_STAR = {
    (1, 2): 5, (1, 3): 9, (1, 4): 3, (2, 3): 2, (2, 4): 3, (3, 4): 7,
}
# full interval table for the cycle (1 2 3 4): C[i][j] for 1 <= i < j <= 4
DP4_C = {(1, 2): 5, (1, 3): 7, (1, 4): 8, (2, 3): 2, (2, 4): 5, (3, 4): 7}
DP4_SPLITS = {(1, 3): (1, 2), (2, 4): (3, 4), (1, 4): (1, 4)}


def dp4_raw():
    return from_pairs(4, DP4_ENTRIES)


def mod5_raw():
    # five labels on a circle: neighbours cost 3, chords cost 1
    entries = []
    for i in range(1, 6):
        entries.append((i, i % 5 + 1, 3))
        entries.append((i, (i + 1) % 5 + 1, 1))
    return from_pairs(5, entries)


MOD5_STAR = {
    (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (1, 5): 3,
    (1, 3): 1, (2, 4): 1, (3, 5): 1, (1, 4): 1, (2, 5): 1,
}


def sparse5_raw():
    # three cheap swaps, every other pair prohibitively expensive
    cheap = {(2, 4), (2, 5), (3, 5)}
    return from_pairs(5, [
        (a, b, 1 if (a, b) in cheap else 100)
        for a in range(1, 6) for b in range(a + 1, 6)
    ])


SPARSE5_STAR = {
    (2, 4): 1, (2, 5): 1, (3, 5): 1,
    (2, 3): 3, (4, 5): 3,
    (3, 4): 5,
    (1, 2): 100, (1, 3): 100, (1, 4): 100, (1, 5): 100,
}


def ring10_raw():
    # ten labels on a circle, unit cost between neighbours, nothing else
    return from_pairs(10, [(i, i + 1, 1) for i in range(1, 10)] + [(1, 10, 1)])


def ring10_distance(a: int, b: int) -> int:
    d = abs(a - b)
    return min(d, 10 - d)


# one-line form of (1 7 3 9 5)(2 8 4 10 6)
RING10_IMAGES = (7, 8, 9, 10, 1, 2, 3, 4, 5, 6)


def relax6_raw():
    # six-vertex relaxation fixture; vertices a..f are 1..6
    return from_pairs(6, [
        (1, 2, 4), (1, 3, 1), (2, 4, 4), (3, 4, 8), (4, 5, 20),
        (4, 6, 2), (2, 5, 30), (3, 6, 10), (5, 6, 3),
    ])


RELAX6_D1 = {1: 0, 2: 4, 3: 1, 4: 10, 5: 18, 6: 12}
RELAX6_D2 = {1: 0, 2: 8, 3: 2, 4: 16, 5: 26, 6: 20}


def random_table(n, rng, *, inf_share=0.0, lo=1, hi=100):
    """Complete random integer table; inf_share of the entries become inf."""
    entries = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            v = float("inf") if rng.random() < inf_share else rng.randint(lo, hi)
            entries.append((a, b, v))
    return from_pairs(n, entries)
