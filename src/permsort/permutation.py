"""Permutation algebra over the ground set {1, ..., n}.

A permutation is stored by its one-line images: entry i-1 of ``images`` is
the image of i. Products compose right to left, so in ``compose(q, p)`` the
permutation ``p`` acts first. Transposition sequences are kept in written
order: the leftmost transposition of a product is the one applied last.
``validate_decomposition`` enforces that orientation.

Everything here is immutable and hashable: the classes are ``__slots__``
classes on ``values.Frozen``, which compare, hash and print by their fields
and refuse assignment, as frozen dataclasses do.
"""
from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterable, Sequence

from .errors import CostParseError
from .values import Frozen, set_field


class Permutation(Frozen):
    """Bijection on {1, ..., n} in one-line notation.

    >>> p = Permutation((3, 1, 2, 5, 4))
    >>> p(1), p(4)
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

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"label {i} outside 1..{self.n}")
        return self.images[i - 1]

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))


@total_ordering
class Transposition(Frozen):
    """Unordered pair of distinct labels, normalised so a < b; ordered by (a, b).

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

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)

    def __lt__(self, other):
        return self.pair < other.pair if other.__class__ is self.__class__ else NotImplemented

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

    def product(self, n: int) -> Permutation:
        """Multiply the sequence out, rightmost transposition acting first.

        Each swap exchanges two labels among the images, found through the
        inverse, so the whole product takes O(len + n).
        """
        images = list(range(1, n + 1))
        where = list(range(-1, n))    # where[v] is the index holding image v
        for t in reversed(self.transpositions):
            a, b = t.a, t.b
            if b > n:
                raise ValueError(f"label {b} outside 1..{n}")
            ia, ib = where[a], where[b]
            images[ia], images[ib] = b, a
            where[a], where[b] = ib, ia
        return Permutation(tuple(images))

    def cost(self, costs) -> float:
        """Total cost of the sequence under a cost table (entries may repeat)."""
        return sum(costs.cost(t.a, t.b) for t in self.transpositions)

    def max_label(self) -> int:
        return max((t.b for t in self.transpositions), default=1)

    def __str__(self) -> str:
        return "".join(str(t) for t in self.transpositions)


def compose(outer: Permutation, inner: Permutation) -> Permutation:
    """Product outer*inner: ``inner`` acts first.

    >>> p = permutation_from_cycles(4, [(1, 2, 4)])
    >>> q = permutation_from_cycles(4, [(2, 1, 3)])
    >>> nontrivial_cycles(compose(p, q))[0].elements
    (1, 3, 4)
    """
    if outer.n != inner.n:
        raise ValueError("size mismatch")
    return Permutation(tuple(outer.images[j - 1] for j in inner.images))


def inverse(p: Permutation) -> Permutation:
    """
    >>> inverse(Permutation((3, 1, 2, 5, 4))).images
    (2, 3, 1, 5, 4)
    """
    images = [0] * p.n
    for i, v in enumerate(p.images, start=1):
        images[v - 1] = i
    return Permutation(tuple(images))


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


def transposition_parity(p: Permutation) -> int:
    """Length of any transposition product for p, modulo 2: a k-cycle takes k - 1."""
    return sum(c.k - 1 for c in nontrivial_cycles(p)) % 2


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


def validate_decomposition(d: Decomposition, target: Permutation) -> bool:
    """True iff the written-order product of d equals target, in O(len + n)."""
    if d.max_label() > target.n:
        return False
    return d.product(target.n) == target


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
