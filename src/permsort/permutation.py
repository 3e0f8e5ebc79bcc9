"""Permutation algebra over the ground set {1, ..., n}.

A permutation is stored by its one-line images: entry i-1 of ``images`` is
the image of i. Products compose right to left, so in ``compose(q, p)`` the
permutation ``p`` acts first. Transposition sequences are kept in written
order: the leftmost transposition of a product is the one applied last.
``validate_decomposition`` enforces that orientation.

Everything here is immutable and hashable.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1, ..., n} in one-line notation.

    >>> p = Permutation((3, 1, 2, 5, 4))
    >>> p(1), p(4)
    (3, 5)
    """

    images: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.images, tuple):
            object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if n < 1:
            raise ValueError("a permutation needs at least one element")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {self.images}")

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


@dataclass(frozen=True, order=True)
class Transposition:
    """Unordered pair of distinct labels, normalised so a < b.

    >>> Transposition(4, 1)
    Transposition(a=1, b=4)
    """

    a: int
    b: int

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError(f"transposition needs two distinct labels, got {self.a}")
        if self.a > self.b:
            a, b = self.a, self.b
            object.__setattr__(self, "a", b)
            object.__setattr__(self, "b", a)
        if self.a < 1:
            raise ValueError(f"labels start at 1, got {self.a}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)

    def __str__(self) -> str:
        return f"({self.a} {self.b})"


@dataclass(frozen=True)
class Cycle:
    """Cyclic sequence of distinct labels, rotated to start at its minimum.

    The rotation makes equal cycles compare equal regardless of how the
    caller wrote them down.

    >>> Cycle((3, 2, 1)).elements
    (1, 3, 2)
    """

    elements: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.elements, tuple):
            object.__setattr__(self, "elements", tuple(self.elements))
        if len(self.elements) < 1:
            raise ValueError("a cycle needs at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"repeated label in cycle {self.elements}")
        if min(self.elements) < 1:
            raise ValueError("labels start at 1")
        i = self.elements.index(min(self.elements))
        object.__setattr__(self, "elements", self.elements[i:] + self.elements[:i])

    @property
    def k(self) -> int:
        return len(self.elements)

    def as_permutation(self, n: int | None = None) -> Permutation:
        """The permutation mapping each element to its cyclic successor."""
        if n is None:
            n = max(self.elements)
        if n < max(self.elements):
            raise ValueError(f"cycle {self.elements} does not fit in 1..{n}")
        images = list(range(1, n + 1))
        for i, e in enumerate(self.elements):
            images[e - 1] = self.elements[(i + 1) % len(self.elements)]
        return Permutation(tuple(images))

    def __str__(self) -> str:
        return "(" + " ".join(str(e) for e in self.elements) + ")"


@dataclass(frozen=True)
class Decomposition:
    """A product of transpositions in written order (leftmost applied last)."""

    transpositions: tuple[Transposition, ...] = ()

    def __post_init__(self):
        if not isinstance(self.transpositions, tuple):
            object.__setattr__(self, "transpositions", tuple(self.transpositions))

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
    >>> cycles(compose(p, q))[0].elements
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


def apply_transposition(p: Permutation, t: Transposition) -> Permutation:
    """Left-multiply by (a b): the two labels swap wherever they appear as images.

    Joins two cycles of p into one when a and b sit in different cycles,
    splits one cycle in two when they share a cycle.
    """
    if t.b > p.n:
        raise ValueError(f"label {t.b} outside 1..{p.n}")
    a, b = t.a, t.b
    images = list(p.images)
    for i, v in enumerate(images):
        if v == a:
            images[i] = b
        elif v == b:
            images[i] = a
    return Permutation(tuple(images))


def cycles(p: Permutation) -> list[Cycle]:
    """Disjoint cycles of p, fixed points included, sorted by minimum element.

    >>> [c.elements for c in cycles(Permutation((3, 1, 2, 5, 4)))]
    [(1, 3, 2), (4, 5)]
    """
    seen = [False] * (p.n + 1)
    out = []
    for start in range(1, p.n + 1):
        if seen[start]:
            continue
        cur, elems = start, []
        while not seen[cur]:
            seen[cur] = True
            elems.append(cur)
            cur = p(cur)
        out.append(Cycle(tuple(elems)))
    return out


def nontrivial_cycles(p: Permutation) -> list[Cycle]:
    """Cycles of length at least two."""
    return [c for c in cycles(p) if c.k > 1]


def parity(p: Permutation) -> str:
    """'even' or 'odd'; every decomposition length has this parity."""
    return "even" if transposition_parity(p) == 0 else "odd"


def transposition_parity(p: Permutation) -> int:
    """Length of any transposition product for p, modulo 2."""
    return (p.n - len(cycles(p))) % 2


def cayley_length(p: Permutation) -> int:
    """Minimum number of transpositions whose product is p: n minus #cycles."""
    return p.n - len(cycles(p))


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
    from .errors import CostParseError

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


def format_cycles(cycle_list: Iterable[Cycle], *, skip_fixed: bool = False) -> str:
    parts = [str(c) for c in cycle_list if c.k > 1 or not skip_fixed]
    return "".join(parts) if parts else "()"


def parse_cycles(text: str, n: int) -> Permutation:
    from .errors import CostParseError

    body = text.strip()
    if not re.fullmatch(r"(\(\s*(\d+(\s+\d+)*\s*)?\)\s*)*", body):
        raise CostParseError(f"bad cycle notation: {text!r}")
    groups = re.findall(r"\(([^()]*)\)", body)
    try:
        return permutation_from_cycles(n, [tuple(int(t) for t in g.split()) for g in groups if g.split()])
    except ValueError as exc:
        raise CostParseError(str(exc)) from None
