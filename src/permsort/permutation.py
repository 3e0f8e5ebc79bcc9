"""Permutation algebra over the ground set {1, ..., n}.

A permutation is stored by its one-line images: entry i-1 of ``images`` is
the image of i. Transposition sequences are kept in written order: the
leftmost transposition of a product is the one applied last. ``_moves``
multiplies every sequence out; ``validate_decomposition`` enforces that
orientation.

Everything here is immutable and hashable: the classes are ``__slots__``
classes on ``values.Frozen``, which compare, hash and print by their fields
and refuse assignment, as frozen dataclasses do.
"""
from __future__ import annotations

import re
from functools import reduce
from operator import add
from typing import Iterable, Sequence

from .errors import CostParseError
from .values import Frozen, set_field


class Permutation(Frozen):
    """Bijection on {1, ..., n} in one-line notation.

    >>> p = Permutation((3, 1, 2, 5, 4))
    >>> p.images[1 - 1], p.images[4 - 1]
    (3, 5)
    """

    __slots__ = _fields = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("a permutation needs at least one element")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {images}")
        set_field(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))


class Transposition(Frozen):
    """Unordered pair of distinct labels, normalised so a < b.

    >>> Transposition(4, 1)
    Transposition(a=1, b=4)
    """

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: int, b: int):
        if a == b:
            raise ValueError(f"transposition needs two distinct labels, got {a}")
        if a > b:
            a, b = b, a
        if a < 1:
            raise ValueError(f"labels start at 1, got {a}")
        set_field(self, "a", a)
        set_field(self, "b", b)

    def __str__(self) -> str:
        return f"({self.a} {self.b})"


class Cycle(Frozen):
    """Cyclic sequence of distinct labels, rotated to start at its minimum.

    The rotation makes equal cycles compare equal regardless of how the
    caller wrote them down.

    >>> Cycle((3, 2, 1)).elements
    (1, 3, 2)
    """

    __slots__ = _fields = ("elements",)

    def __init__(self, elements: Sequence[int]):
        elements = tuple(elements)
        if len(elements) < 1:
            raise ValueError("a cycle needs at least one element")
        if len(set(elements)) != len(elements):
            raise ValueError(f"repeated label in cycle {elements}")
        if min(elements) < 1:
            raise ValueError("labels start at 1")
        i = elements.index(min(elements))
        set_field(self, "elements", elements[i:] + elements[:i])

    @property
    def k(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return "(" + " ".join(str(e) for e in self.elements) + ")"


class Decomposition(Frozen):
    """A product of transpositions in written order (leftmost applied last)."""

    __slots__ = _fields = ("transpositions",)

    def __init__(self, transpositions: Iterable[Transposition] = ()):
        set_field(self, "transpositions", tuple(transpositions))

    def __len__(self) -> int:
        return len(self.transpositions)

    def __iter__(self):
        return iter(self.transpositions)

    def cost(self, costs) -> float:
        """Total cost under a cost table (entries may repeat), added left to right."""
        return reduce(add, (costs.cost(t.a, t.b) for t in self.transpositions), 0)

    def __str__(self) -> str:
        return "".join(str(t) for t in self.transpositions)


def nontrivial_cycles(p: Permutation) -> list[Cycle]:
    """Cycles of length at least two, sorted by minimum element.

    Fixed points are skipped before any walk, and each walk starts from its
    least label, the minimum, so ``Cycle`` keeps the order.

    >>> [c.elements for c in nontrivial_cycles(Permutation((3, 1, 2, 5, 4, 6)))]
    [(1, 3, 2), (4, 5)]
    """
    images = p.images
    seen = [False] * (len(images) + 1)
    out = []
    for start, image in enumerate(images, start=1):
        if seen[start] or image == start:
            continue
        cur, elems = start, []
        while not seen[cur]:
            seen[cur] = True
            elems.append(cur)
            cur = images[cur - 1]
        out.append(Cycle(elems))
    return out


def permutation_from_cycles(n: int, cycle_list: Iterable[Sequence[int] | Cycle]) -> Permutation:
    """Build a permutation of 1..n from disjoint cycles; omitted labels stay fixed."""
    images = list(range(1, n + 1))
    used: set[int] = set()
    for c in cycle_list:
        elems = c.elements if isinstance(c, Cycle) else tuple(c)
        if len(set(elems)) != len(elems):
            raise ValueError(f"repeated label in cycle {elems}")
        if used & set(elems):
            raise ValueError(f"cycles are not disjoint at {sorted(used & set(elems))}")
        used |= set(elems)
        for i, e in enumerate(elems):
            if not 1 <= e <= n:
                raise ValueError(f"label {e} outside 1..{n}")
            images[e - 1] = elems[(i + 1) % len(elems)]
    return Permutation(tuple(images))


def _moves(d: Decomposition) -> dict[int, int]:
    """Image under d's written-order product of each label d touches, in O(len):
    from the right, each swap (a b) exchanges a and b among the images, so
    at[v], the label whose image is v, swaps its entries a and b."""
    at: dict[int, int] = {}
    for t in reversed(d.transpositions):
        a, b = t.a, t.b
        at[a], at[b] = at.get(b, b), at.get(a, a)
    return {x: v for v, x in at.items()}


def validate_decomposition(d: Decomposition, target: Permutation | Cycle) -> bool:
    """True iff the written-order product of d equals target: a permutation
    of 1..n, which d may touch no label past, in O(len + n), or a cycle, in
    O(len + k). Only the labels d touches are followed."""
    moves = _moves(d)
    if isinstance(target, Cycle):
        want = zip(target.elements, target.elements[1:] + target.elements[:1])
    elif max(moves, default=1) > target.n:
        return False
    else:
        want = enumerate(target.images, 1)
    # a label fixed on either side is left out: a 1-cycle moves nothing
    return {x: v for x, v in moves.items() if x != v} == {x: v for x, v in want if x != v}


# Text round trips. One-line form is a single whitespace-separated row of
# images; cycle form looks like "(1 3 2)(4 5)".

def format_one_line(p: Permutation) -> str:
    return " ".join(str(v) for v in p.images)


def parse_one_line(text: str) -> Permutation:
    tokens = text.split()
    if not tokens:
        raise CostParseError("empty permutation")
    try:
        images = tuple(int(tok) for tok in tokens)
    except ValueError as exc:
        raise CostParseError(f"bad permutation token: {exc}") from None
    try:
        return Permutation(images)
    except ValueError as exc:
        raise CostParseError(str(exc)) from None


def format_cycles(cycle_list: Iterable[Cycle]) -> str:
    parts = [str(c) for c in cycle_list]
    return "".join(parts) if parts else "()"


def parse_cycles(text: str, n: int) -> Permutation:
    body = text.strip()
    if not re.fullmatch(r"(\(\s*(\d+(\s+\d+)*\s*)?\)\s*)*", body):
        raise CostParseError(f"bad cycle notation: {text!r}")
    groups = re.findall(r"\(([^()]*)\)", body)
    try:
        return permutation_from_cycles(n, [tuple(int(t) for t in g.split()) for g in groups if g.split()])
    except ValueError as exc:
        raise CostParseError(str(exc)) from None
