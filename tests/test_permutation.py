import random

import pytest

from permsort import (
    Cycle,
    Decomposition,
    Permutation,
    Transposition,
    compose,
    format_cycles,
    format_one_line,
    nontrivial_cycles,
    parse_cycles,
    parse_one_line,
    permutation_from_cycles,
    validate_decomposition,
)
from permsort.errors import CostParseError

from reference_routes import apply_transposition, cayley_length


def random_permutation(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def test_images_must_be_a_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation(())


def test_is_identity():
    assert Permutation(range(1, 5)).is_identity()
    assert not Permutation((3, 1, 2)).is_identity()


def test_transposition_normalises_and_rejects_trivial():
    t = Transposition(4, 1)
    assert (t.a, t.b) == (1, 4)
    assert str(Transposition(2, 7)) == "(2 7)"
    with pytest.raises(ValueError):
        Transposition(3, 3)
    with pytest.raises(ValueError):
        Transposition(0, 2)


def test_cycle_rotates_to_its_minimum():
    assert Cycle((3, 2, 1)).elements == (1, 3, 2)
    assert Cycle((5, 9)).elements == (5, 9)
    assert Cycle((9, 5)).elements == (5, 9)
    with pytest.raises(ValueError):
        Cycle((2, 2))
    with pytest.raises(ValueError):
        Cycle(())


def test_cycle_as_permutation():
    c = Cycle((1, 7, 3, 9, 5))
    p = permutation_from_cycles(10, [c])
    assert [p.images[x - 1] for x in (1, 7, 5, 2)] == [7, 3, 1, 2]
    assert [x.elements for x in nontrivial_cycles(p)] == [(1, 7, 3, 9, 5)]
    with pytest.raises(ValueError):
        permutation_from_cycles(8, [c])


def test_compose_applies_inner_first():
    p = permutation_from_cycles(3, [(1, 2)])
    q = permutation_from_cycles(3, [(2, 3)])
    # (1 2)(2 3) read right to left sends 3 to 2 to 1
    assert compose(p, q).images[3 - 1] == 1
    assert compose(p, q).images == (2, 3, 1)
    with pytest.raises(ValueError):
        compose(p, Permutation(range(1, 5)))


def test_apply_transposition_swaps_the_two_images():
    p = Permutation((2, 3, 4, 5, 1))
    q = apply_transposition(p, Transposition(1, 2))
    assert q.images == (1, 3, 4, 5, 2)
    # same thing as composing with the swap on the left
    assert q == compose(permutation_from_cycles(5, [(1, 2)]), p)
    with pytest.raises(ValueError):
        apply_transposition(p, Transposition(1, 6))


def test_apply_transposition_joins_or_splits_cycles():
    p = permutation_from_cycles(4, [(1, 2), (3, 4)])
    joined = apply_transposition(p, Transposition(1, 3))
    assert len(nontrivial_cycles(joined)) == 1
    split = apply_transposition(joined, Transposition(1, 3))
    assert split == p


def test_cycles_canonical_order():
    p = Permutation((3, 1, 2, 5, 4, 6))
    assert [c.elements for c in nontrivial_cycles(p)] == [(1, 3, 2), (4, 5)]


def test_parity_and_cayley_length():
    five = Permutation((2, 3, 4, 5, 1))
    assert cayley_length(five) == 4
    assert cayley_length(Permutation((2, 1))) == 1
    assert cayley_length(Permutation(range(1, 7))) == 0


def test_product_multiplies_right_to_left():
    d = Decomposition((Transposition(1, 2), Transposition(2, 3)))
    assert d.product(3).images == (2, 3, 1)
    assert [c.elements for c in nontrivial_cycles(d.product(3))] == [(1, 2, 3)]
    assert str(d) == "(1 2)(2 3)"
    assert Decomposition().product(2).is_identity()


def test_validate_decomposition():
    target = permutation_from_cycles(3, [(1, 2, 3)])
    good = Decomposition((Transposition(1, 2), Transposition(2, 3)))
    assert validate_decomposition(good, target)
    # right length, wrong product
    bad = Decomposition((Transposition(1, 3), Transposition(2, 3)))
    assert not validate_decomposition(bad, target)
    # wrong parity
    assert not validate_decomposition(Decomposition((Transposition(1, 2),)), target)
    # label out of range
    wide = Decomposition((Transposition(1, 4), Transposition(1, 4)))
    assert not validate_decomposition(wide, target)


def test_one_line_round_trip():
    p = Permutation((2, 1, 4, 3))
    assert format_one_line(p) == "2 1 4 3"
    assert parse_one_line(format_one_line(p)) == p
    for text in ("", "1 2 x", "1 1 2"):
        with pytest.raises(CostParseError):
            parse_one_line(text)


def test_cycle_text_round_trip():
    p = permutation_from_cycles(5, [(1, 3, 2), (4, 5)])
    text = format_cycles(nontrivial_cycles(p))
    assert text == "(1 3 2)(4 5)"
    assert parse_cycles(text, 5) == p
    assert parse_cycles("", 4) == Permutation(range(1, 5))
    assert format_cycles(nontrivial_cycles(Permutation(range(1, 4)))) == "()"
    assert parse_cycles("()", 3) == Permutation(range(1, 4))
    for text in ("(1 2)(2 3)", "(1, 2)", "(1 9)", "(1 2", "(1 2 1 2)", "(1 1)"):
        with pytest.raises(CostParseError):
            parse_cycles(text, 5)


def test_permutation_from_cycles_rejects_bad_input():
    with pytest.raises(ValueError):
        permutation_from_cycles(3, [(1, 4)])
    with pytest.raises(ValueError):
        permutation_from_cycles(4, [(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="repeated label"):
        permutation_from_cycles(4, [(1, 2, 1, 2)])
    with pytest.raises(ValueError, match="repeated label"):
        permutation_from_cycles(4, [(1, 1)])


def test_algebra_round_trips():
    rng = random.Random(20)
    for _ in range(200):
        n = rng.randint(1, 9)
        p = random_permutation(n, rng)
        assert permutation_from_cycles(n, nontrivial_cycles(p)) == p
        if n >= 2:
            a, b = rng.sample(range(1, n + 1), 2)
            t = permutation_from_cycles(n, [(a, b)])
            assert compose(t, p) == apply_transposition(p, Transposition(a, b))


def test_cayley_length_subadditive():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(2, 9)
        p, q = random_permutation(n, rng), random_permutation(n, rng)
        assert cayley_length(compose(p, q)) <= cayley_length(p) + cayley_length(q)


def test_parity_matches_inversion_count():
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randint(1, 8)
        p = random_permutation(n, rng)
        inversions = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if p.images[i] > p.images[j]
        )
        assert cayley_length(p) % 2 == inversions % 2


def test_selection_sort_meets_the_cayley_length():
    # fixing the smallest moved label one swap at a time emits exactly
    # n - #cycles transpositions, the shortest possible
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 9)
        p = random_permutation(n, rng)
        seq = []
        cur = p
        while not cur.is_identity():
            i = next(i for i in range(1, n + 1) if cur.images[i - 1] != i)
            t = Transposition(i, cur.images[i - 1])
            seq.append(t)
            cur = apply_transposition(cur, t)
        d = Decomposition(tuple(seq))
        assert len(d) == cayley_length(p)
        assert validate_decomposition(d, p)
