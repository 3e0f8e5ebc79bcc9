"""Symmetric transposition cost tables.

A cost table assigns every unordered pair of labels a non-negative cost,
possibly ``inf`` for a swap that must never be used directly. Tables carry a
``kind`` tag: ``"raw"`` for costs as given, ``"optimized"`` once every entry
is the cheapest achievable cost for that swap. Consumers that rely on
optimality (the interval DP, the chain decomposition) refuse raw tables;
``assume_optimized`` relabels a table without touching the numbers for
callers who want the untuned behaviour on purpose.

Two structured families are built from a defining path, a weighted order of
all n labels. ``metric_path`` charges each pair the weight sum between them,
which is a metric. ``extended_metric_path`` keeps only consecutive pairs
finite. Costs stay ints when the inputs are ints, so equality checks on
integer instances are exact.

Each number is checked once where it enters: cost and weight tokens in
``_parse_value``, which knows their line, and ``from_pairs`` costs before
it hands them on; listed pairs and their int total in ``_set_pair``, where
a pair listed again must repeat its cost and counts once (the table records
which pairs were listed, holding None until a pair's first listing); path
weights and their sums in ``DefiningPath``; hand-built tables in
``CostMatrix._check``, which refuses a mirrored entry unlike its partner
in type or value and a diagonal entry other than the int 0, and bounds a
raw table's largest int entry and the weight of its int spanning forest,
both at most the int total the parser bounds and the int weight sum a
path's tables are built from, and an optimized table's largest int entry,
so that any 2n entries sum to a float. ``_freeze`` wraps tables computed
from checked numbers without a recheck, freezing their rows in place.
``check_table_size`` refuses an n x n table past ``TABLE_LIMIT`` before it
is allocated; the two allocators, ``_fresh`` and ``metric_path``, call it
first, so every builder and the parser are guarded.
"""
from __future__ import annotations

import sys
from typing import Callable, Iterable, Iterator, Sequence

from .errors import TABLE_LIMIT, CostParseError, SizeLimitError
from .values import Frozen, set_field

INF = float("inf")

Number = int | float


def _is_valid_cost(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    # compares ints of any size exactly, and is False for NaN
    return v == INF or 0 <= v <= sys.float_info.max


def _ints_fit(total: int, n: int) -> bool:
    # adding inf to an int past the float range raises OverflowError; an int
    # phi* entry is at most 5 times a bound on every int entry and int
    # distance (the int total is one), and a cost sums at most 2n
    return 10 * n * total <= sys.float_info.max


def _linker(size: int) -> Callable[[int, int], bool]:
    """Union-find over 0..size-1 with path halving: ``link(i, j)`` joins the
    components of i and j and says whether they were two (Kruskal's test)."""
    root = list(range(size))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    def link(i: int, j: int) -> bool:
        a, b = find(i), find(j)
        root[a] = b
        return a != b

    return link


def _int_forest_weight(table: Sequence[Sequence[Number]]) -> int:
    """Weight of a minimum spanning forest of the int entries (Kruskal).

    An int shortest distance runs along int entries only, so none exceeds it.
    """
    n = len(table)
    link = _linker(n)
    weight = 0
    for v, i, j in sorted((table[i][j], i, j) for i in range(n) for j in range(i + 1, n)
                          if isinstance(table[i][j], int)):
        if link(i, j):
            weight += v
    return weight


def tolerance(*values: Number) -> Number:
    """Slack for comparing sums of these values: 0 when all are ints.

    Integer costs compare exactly; any float makes it 1e-9 relative to the
    largest magnitude, and at least 1e-9.
    """
    if all(isinstance(v, int) for v in values):
        return 0
    return 1e-9 * max(1.0, *(abs(v) for v in values))


class CostMatrix(Frozen):
    """Full symmetric table: each mirrored entry has its partner's type and
    value, and the diagonal, which the phi* passes read, holds int zeros."""

    __slots__ = _fields = ("n", "table", "kind")

    def __init__(self, n: int, table: tuple[tuple[Number, ...], ...], kind: str = "raw"):
        super().__init__(n, table, kind)
        self._check()

    def _check(self):
        """Shape, every entry and its mirror, and its kind's int bound: the full check."""
        if self.kind not in ("raw", "optimized"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("need n >= 1")
        if len(self.table) != self.n or any(len(row) != self.n for row in self.table):
            raise ValueError("table shape does not match n")
        top = 0
        for i in range(self.n):
            d = self.table[i][i]
            if type(d) is not int or d != 0:
                raise ValueError(f"diagonal entry {d!r} at ({i + 1}, {i + 1}) is not the int 0")
            for j in range(i + 1, self.n):
                v, w = self.table[i][j], self.table[j][i]
                if type(v) is not type(w) or v != w:
                    raise ValueError(f"asymmetric entry at ({i + 1}, {j + 1}): {v!r} and {w!r}")
                if not _is_valid_cost(v):
                    raise ValueError(f"bad cost {v!r} at ({i + 1}, {j + 1})")
                if isinstance(v, int) and v > top:
                    top = v
        # the parser bounds the int total, which is at least both of these;
        # DefiningPath's int weight sum is at least both for its tables. A
        # phi* entry may pass that bound, but one built from an accepted raw
        # table is at most 5 times it, so 2n of them still sum to a float
        if self.kind == "raw":
            fits = _ints_fit(max(top, _int_forest_weight(self.table)), self.n)
        else:
            fits = 2 * self.n * top <= sys.float_info.max
        if not fits:
            raise ValueError("integer costs sum past the float range")

    def cost(self, a: int, b: int) -> Number:
        if a == b:
            raise ValueError(f"cost of a trivial swap ({a}, {a}) requested")
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise ValueError(f"pair ({a}, {b}) outside 1..{self.n}")
        return self.table[a - 1][b - 1]

    def entries(self) -> Iterator[tuple[int, int, Number]]:
        """(a, b, cost) for every pair a < b, in lexicographic order."""
        for a in range(1, self.n + 1):
            for b in range(a + 1, self.n + 1):
                yield (a, b, self.table[a - 1][b - 1])

    def assume_optimized(self) -> "CostMatrix":
        """Relabel as optimized without optimizing. Use deliberately."""
        return _freeze(list(self.table), "optimized")


class DefiningPath(Frozen):
    """Weighted order of all labels: order[i] -- order[i+1] costs weights[i].

    ``positions`` holds the 0-based position of each label, and prefix[i]
    the weight sum up to position i; the distance between two labels is
    the difference of their prefix sums. Both are derived, so they stay
    out of ``repr`` and ``==``.
    """

    _fields = ("order", "weights")
    __slots__ = _fields + ("positions", "prefix")

    def __init__(self, order: Sequence[int], weights: Sequence[Number]):
        order, weights = tuple(order), tuple(weights)
        n = len(order)
        if n < 2:
            raise ValueError("a defining path needs at least two vertices")
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError(f"path order is not a permutation of 1..{n}: {order}")
        if len(weights) != n - 1:
            raise ValueError("need exactly n-1 weights")
        for w in weights:
            # a parsed 'inf' token is a valid cost, but no path weight
            if w == INF or not _is_valid_cost(w):
                raise ValueError(f"bad path weight {w!r}")
        prefix: list[Number] = [0]
        for w in weights:
            prefix.append(prefix[-1] + w)
        ints = sum(w for w in weights if isinstance(w, int))
        if prefix[-1] > sys.float_info.max or not _ints_fit(ints, n):
            raise ValueError("path weights sum past the float range")
        set_field(self, "order", order)
        set_field(self, "weights", weights)
        set_field(self, "positions", {label: i for i, label in enumerate(order)})
        set_field(self, "prefix", tuple(prefix))

    @property
    def n(self) -> int:
        return len(self.order)

    def distance(self, a: int, b: int) -> Number:
        """Weight sum along the path between a and b.

        The prefix sums never decrease and y - x is exactly -(x - y) in
        floating point, so this is prefix[j] - prefix[i] for positions i <= j.
        """
        return abs(self.prefix[self.positions[b]] - self.prefix[self.positions[a]])


def check_table_size(n: int) -> None:
    """Refuse an n x n table past ``TABLE_LIMIT`` before it is allocated."""
    if n > TABLE_LIMIT:
        raise SizeLimitError(f"n={n} exceeds the cost table limit {TABLE_LIMIT}: "
                             f"an n x n table would hold {n * n} entries")


def _fresh(n: int, fill: Number | None) -> list[list[Number | None]]:
    check_table_size(n)
    rows = [[fill] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 0
    return rows


def _freeze(rows: list[Sequence[Number]], kind: str) -> CostMatrix:
    # skips CostMatrix._check: callers build rows that meet its rules from
    # checked costs, their sums, or DefiningPath's finite prefix sums
    for i, row in enumerate(rows):
        rows[i] = tuple(row)    # in place, so no table is held twice
    m = object.__new__(CostMatrix)
    Frozen.__init__(m, len(rows), tuple(rows), kind)
    return m


def _set_pair(rows: list[list[Number | None]], a: int, b: int, v: Number, total: int) -> int:
    """Write a listed (a, b, cost) entry, its cost already checked, to both
    halves; return the int total of the stored entries. The table records
    which pairs were listed, holding None until a pair's first listing. A pair
    listed again must repeat its cost, and the later listing replaces it."""
    n = len(rows)
    if a == b or not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"bad pair ({a}, {b}) for n={n}")
    v += 0    # -0.0 + 0 is 0.0: a zero cost is never stored as -0.0
    old = rows[a - 1][b - 1]
    if old is not None and old != v:
        raise ValueError(f"conflicting duplicate for pair ({min(a, b)}, {max(a, b)})")
    if isinstance(old, int):
        total -= old
    if isinstance(v, int):
        total += v
        if not _ints_fit(total, n):
            raise ValueError("integer costs sum past the float range")
    rows[a - 1][b - 1] = rows[b - 1][a - 1] = v
    return total


def _freeze_listed(rows: list[list[Number | None]]) -> CostMatrix:
    for row in rows:    # in place: a pair never listed costs inf
        row[:] = [INF if v is None else v for v in row]
    return _freeze(rows, "raw")


def from_pairs(n: int, entries: Iterable[tuple[int, int, Number]]) -> CostMatrix:
    """Build a table from (a, b, cost) triples; unlisted pairs default to inf."""
    if n < 1:
        raise ValueError("need n >= 1")
    rows = _fresh(n, None)
    total = 0
    for a, b, v in entries:
        if not _is_valid_cost(v):
            raise ValueError(f"bad cost {v!r} for pair ({a}, {b})")
        total = _set_pair(rows, a, b, v, total)
    return _freeze_listed(rows)


def metric_path(path: DefiningPath) -> CostMatrix:
    """Charge every pair the weight sum between its labels along the path."""
    check_table_size(path.n)
    # the row-wise form of DefiningPath.distance
    at = [path.prefix[path.positions[label]] for label in range(1, path.n + 1)]
    rows = [[abs(y - x) for y in at] for x in at]
    for i, row in enumerate(rows):
        row[i] = 0
    return _freeze(rows, "raw")


def extended_metric_path(path: DefiningPath) -> CostMatrix:
    """Only consecutive path pairs are finite; everything else costs inf."""
    n = path.n
    rows = _fresh(n, INF)
    for i in range(n - 1):
        a, b = path.order[i], path.order[i + 1]
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = path.weights[i]
    return _freeze(rows, "raw")


# File format. Cost tables:
#     n 5
#     1 2 3
#     1 3 inf
# Defining paths:
#     path
#     1 3 5 2 4
#     2 1 4 1
# '#' starts a comment; blank lines are skipped.

_CHUNK = 1 << 16    # characters of a file split into lines at a time


def _parse_value(tok: str, lineno: int) -> Number:
    """A non-negative int or float token, or the literal 'inf'."""
    if tok == "inf":
        return INF
    try:
        v = int(tok)
    except ValueError:
        try:
            v = float(tok)
        except ValueError:
            raise CostParseError(f"bad cost value {tok!r}", lineno) from None
    # catches '1e400' and 'Infinity', which float() reads as inf, and ints
    # too large for a float
    if v > sys.float_info.max:
        raise CostParseError(f"cost value {tok!r} is out of range; only 'inf' means infinity", lineno)
    if not _is_valid_cost(v):
        raise CostParseError(f"bad cost value {tok!r}", lineno)
    return v + 0    # '-0.0' is stored as 0.0


def _raw_lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, split one chunk at a time.

    Each chunk is cut just after a "\\n", which ends a line whichever break
    it belongs to ("\\r\\n" included), so the chunks' lines are the text's;
    only one chunk's list is alive at a time.
    """
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _CHUNK) + 1 or len(text)
        yield from text[start:cut].splitlines()
        start = cut


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(_raw_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_table(lineno: int, head: str, lines: Iterator[tuple[int, str]]) -> CostMatrix:
    parts = head.split()
    if len(parts) != 2 or parts[0] != "n":
        raise CostParseError(f"expected 'n <size>', got {head!r}", lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise CostParseError(f"bad size {parts[1]!r}", lineno) from None
    if n < 1:
        raise CostParseError(f"bad size {n}", lineno)
    rows = _fresh(n, None)
    total = 0
    for lineno, line in lines:
        toks = line.split()
        if len(toks) != 3:
            raise CostParseError(f"expected 'a b cost', got {line!r}", lineno)
        try:
            a, b = int(toks[0]), int(toks[1])
        except ValueError:
            raise CostParseError(f"bad pair in {line!r}", lineno) from None
        v = _parse_value(toks[2], lineno)
        try:
            total = _set_pair(rows, a, b, v, total)
        except ValueError as exc:
            raise CostParseError(str(exc), lineno) from None
    return _freeze_listed(rows)


def _parse_path(lines: list[tuple[int, str]]) -> DefiningPath:
    if len(lines) != 2:
        raise CostParseError("a path file needs an order line and a weight line")
    (order_lineno, order_line), (lineno, weight_line) = lines
    try:
        order = tuple(int(t) for t in order_line.split())
    except ValueError:
        raise CostParseError(f"bad path order {order_line!r}", order_lineno) from None
    weights = tuple(_parse_value(t, lineno) for t in weight_line.split())
    try:
        return DefiningPath(order, weights)
    except ValueError as exc:
        raise CostParseError(str(exc), lineno) from None


def parse_cost_input(text: str) -> CostMatrix | DefiningPath:
    """A cost table, or a defining path when the first content line is 'path'."""
    lines = _content_lines(text)
    for lineno, head in lines:    # only the first content line; a table streams the rest
        return _parse_path(list(lines)) if head == "path" else _parse_table(lineno, head, lines)
    raise CostParseError("empty cost file")


def _format_value(v: Number) -> str:
    if v == INF:
        return "inf"
    if isinstance(v, int):
        return str(v)
    return repr(v + 0)    # -0.0 + 0 is 0.0, so a hand-built -0.0 prints as 0.0


def format_cost_file(costs: CostMatrix) -> str:
    lines = [f"n {costs.n}"]
    lines += [f"{a} {b} {_format_value(v)}" for a, b, v in costs.entries()]
    return "\n".join(lines) + "\n"


def format_path_file(path: DefiningPath) -> str:
    return "path\n{}\n{}\n".format(
        " ".join(str(v) for v in path.order),
        " ".join(_format_value(w) for w in path.weights),
    )
