"""Value semantics of the package's immutable classes.

They are ``__slots__`` classes on ``permsort.values.Frozen``; each behaves
as a frozen dataclass with the same fields would: field-wise ``repr``,
``==`` and ``hash``, ``NotImplemented`` against other classes, no
assignment, and ``Transposition`` ordered by (a, b).
"""
import copy
import pickle

import pytest

from permsort import (
    CostMatrix,
    Cycle,
    Decomposition,
    DefiningPath,
    Permutation,
    Transposition,
)


def _samples():
    return [
        Permutation((2, 1, 3)),
        Transposition(3, 1),
        Cycle((3, 2, 1)),
        Decomposition((Transposition(3, 1), Transposition(1, 2))),
        Decomposition(),
        CostMatrix(2, ((0, 3), (3, 0))),
        DefiningPath((2, 1, 3), (4, 5.5)),
    ]


# a frozen dataclass's repr, byte for byte; the doctests and printed outputs rely on it
REPRS = [
    "Permutation(images=(2, 1, 3))",
    "Transposition(a=1, b=3)",
    "Cycle(elements=(1, 3, 2))",
    "Decomposition(transpositions=(Transposition(a=1, b=3), Transposition(a=1, b=2)))",
    "Decomposition(transpositions=())",
    "CostMatrix(n=2, table=((0, 3), (3, 0)), kind='raw')",
    "DefiningPath(order=(2, 1, 3), weights=(4, 5.5))",
]


def test_repr_of_each_class():
    assert [repr(v) for v in _samples()] == REPRS
    assert {type(v) for v in _samples()} == {
        Permutation, Transposition, Cycle, Decomposition, CostMatrix, DefiningPath}


def test_equal_values_hash_equal():
    for a, b in zip(_samples(), _samples()):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert Cycle((2, 3, 1)) == Cycle((1, 2, 3))
    assert hash(Cycle((2, 3, 1))) == hash(Cycle((1, 2, 3)))
    assert Transposition(2, 1) == Transposition(1, 2)
    assert len({Transposition(2, 1), Transposition(1, 2), Transposition(1, 3)}) == 2
    assert Permutation((2, 1)) != Permutation((1, 2))
    assert CostMatrix(2, ((0, 3), (3, 0))) != CostMatrix(2, ((0, 3), (3, 0)), "optimized")


def test_transpositions_sort_by_pair():
    ts = [Transposition(3, 4), Transposition(2, 1), Transposition(1, 4), Transposition(2, 3)]
    assert [t.pair for t in sorted(ts)] == [(1, 2), (1, 4), (2, 3), (3, 4)]
    assert Transposition(1, 2) < Transposition(1, 3) <= Transposition(3, 1)
    assert Transposition(2, 3) > Transposition(1, 4) >= Transposition(4, 1)
    with pytest.raises(TypeError):
        Transposition(1, 2) < (1, 3)
    with pytest.raises(TypeError):
        Permutation((1, 2)) < Permutation((2, 1))    # only Transposition is ordered


def test_equality_across_classes_is_false():
    # same field values, other class: __eq__ answers NotImplemented, so == is False
    assert Permutation((1, 2)) != Cycle((1, 2))
    assert Cycle((1, 2)) != Permutation((1, 2))
    assert Transposition(1, 2) != (1, 2)
    assert Transposition(1, 2).__eq__((1, 2)) is NotImplemented
    assert Decomposition() != ()
    for a in _samples():
        for b in _samples():
            if type(a) is not type(b):
                assert a != b


def test_fields_cannot_be_assigned():
    t = Transposition(1, 2)
    with pytest.raises(AttributeError, match="cannot assign to field 'a'"):
        t.a = 5
    with pytest.raises(AttributeError):
        del t.b
    with pytest.raises(AttributeError):
        t.extra = 1    # slots: no other attribute either
    for v in _samples():
        for name in type(v).__slots__:
            with pytest.raises(AttributeError):
                setattr(v, name, None)
    assert t == Transposition(1, 2)


def test_defining_path_equality_ignores_the_derived_fields():
    a = DefiningPath((2, 1, 3), (4, 5))
    b = DefiningPath([2, 1, 3], [4, 5])
    # the derived fields exist but are neither printed nor compared
    assert a.positions == {2: 0, 1: 1, 3: 2} and a.prefix == (0, 4, 9)
    object.__setattr__(b, "positions", {})
    object.__setattr__(b, "prefix", ())
    assert a == b and hash(a) == hash(b)
    assert repr(b) == "DefiningPath(order=(2, 1, 3), weights=(4, 5))"
    assert a != DefiningPath((2, 1, 3), (4, 6))


def test_copies_and_pickles_rebuild_equal_values():
    for v in _samples():
        for again in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
            assert again == v and type(again) is type(v)
    path = pickle.loads(pickle.dumps(DefiningPath((2, 1, 3), (4, 5))))
    assert path.distance(2, 3) == 9


def test_constructors_normalise_their_fields():
    assert Permutation([2, 1]).images == (2, 1)
    assert Cycle([3, 1, 2]).elements == (1, 2, 3)
    assert Decomposition([Transposition(1, 2)]).transpositions == (Transposition(1, 2),)
    assert Transposition(5, 2).pair == (2, 5)
    assert DefiningPath([2, 1], [7]).order == (2, 1)
