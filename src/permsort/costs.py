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

Each number is checked once where it enters: cost tokens in ``_parse_value``,
listed entries in ``_set_pair``, path weights and their sum in
``DefiningPath``, hand-built tables in ``CostMatrix.__post_init__``.
``_freeze`` wraps tables computed from checked numbers without a recheck.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import CostParseError

INF = float("inf")

Number = int | float


def _is_valid_cost(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    # compares ints of any size exactly, and is False for NaN
    return v == INF or 0 <= v <= sys.float_info.max


def tolerance(*values: Number) -> Number:
    """Slack for comparing sums of these values: 0 when all are ints.

    Integer costs compare exactly; any float makes it 1e-9 relative to the
    largest magnitude, and at least 1e-9.
    """
    if all(isinstance(v, int) for v in values):
        return 0
    return 1e-9 * max(1.0, *(abs(v) for v in values))


@dataclass(frozen=True)
class CostMatrix:
    """Full symmetric table with a zero diagonal that is never read."""

    n: int
    table: tuple[tuple[Number, ...], ...]
    kind: str = "raw"

    def __post_init__(self):
        if self.kind not in ("raw", "optimized"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("need n >= 1")
        if len(self.table) != self.n or any(len(row) != self.n for row in self.table):
            raise ValueError("table shape does not match n")
        for i in range(self.n):
            if self.table[i][i] != 0:
                raise ValueError("diagonal must be zero")
            for j in range(i + 1, self.n):
                v = self.table[i][j]
                if v != self.table[j][i]:
                    raise ValueError(f"asymmetric entry at ({i + 1}, {j + 1})")
                if not _is_valid_cost(v):
                    raise ValueError(f"bad cost {v!r} at ({i + 1}, {j + 1})")

    def cost(self, a: int, b: int) -> Number:
        if a == b:
            raise ValueError(f"cost of a trivial swap ({a}, {a}) requested")
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise ValueError(f"pair ({a}, {b}) outside 1..{self.n}")
        return self.table[a - 1][b - 1]

    def is_finite(self, a: int, b: int) -> bool:
        return self.cost(a, b) != INF

    def pairs(self) -> Iterator[tuple[int, int]]:
        for a in range(1, self.n + 1):
            for b in range(a + 1, self.n + 1):
                yield (a, b)

    def entries(self) -> Iterator[tuple[int, int, Number]]:
        for a, b in self.pairs():
            yield (a, b, self.table[a - 1][b - 1])

    def finite_values(self) -> list[Number]:
        return [v for _, _, v in self.entries() if v != INF]

    def assume_optimized(self) -> "CostMatrix":
        """Relabel as optimized without optimizing. Use deliberately."""
        return _freeze(self.table, "optimized")

    def all_integer(self) -> bool:
        return all(isinstance(v, int) or (isinstance(v, float) and v == INF) for _, _, v in self.entries())


@dataclass(frozen=True)
class DefiningPath:
    """Weighted order of all labels: order[i] -- order[i+1] costs weights[i]."""

    order: tuple[int, ...]
    weights: tuple[Number, ...]
    # 0-based position of each label, and prefix[i] = weight sum up to
    # position i; the distance between two labels is the difference of
    # their prefix sums
    positions: dict[int, int] = field(init=False, repr=False, compare=False)
    prefix: tuple[Number, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.order, tuple):
            object.__setattr__(self, "order", tuple(self.order))
        if not isinstance(self.weights, tuple):
            object.__setattr__(self, "weights", tuple(self.weights))
        n = len(self.order)
        if n < 2:
            raise ValueError("a defining path needs at least two vertices")
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"path order is not a permutation of 1..{n}: {self.order}")
        if len(self.weights) != n - 1:
            raise ValueError("need exactly n-1 weights")
        for w in self.weights:
            if not _is_valid_cost(w) or w == INF:
                raise ValueError(f"bad path weight {w!r}")
        prefix: list[Number] = [0]
        for w in self.weights:
            prefix.append(prefix[-1] + w)
        if prefix[-1] > sys.float_info.max:
            raise ValueError("path weights sum past the float range")
        object.__setattr__(self, "positions", {label: i for i, label in enumerate(self.order)})
        object.__setattr__(self, "prefix", tuple(prefix))

    @property
    def n(self) -> int:
        return len(self.order)

    def position(self, label: int) -> int:
        """0-based position of a label along the path."""
        return self.positions[label]

    def distance(self, a: int, b: int) -> Number:
        """Weight sum along the path between a and b.

        The prefix sums never decrease and y - x is exactly -(x - y) in
        floating point, so this is prefix[j] - prefix[i] for positions i <= j.
        """
        return abs(self.prefix[self.positions[b]] - self.prefix[self.positions[a]])

    def segment(self, a: int, b: int) -> tuple[Number, Number]:
        """(weight sum, largest single weight) strictly between a and b."""
        i, j = sorted((self.position(a), self.position(b)))
        if i == j:
            raise ValueError("segment endpoints must differ")
        chunk = self.weights[i:j]
        return sum(chunk), max(chunk)


def _fresh(n: int, fill: Number) -> list[list[Number]]:
    rows = [[fill] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 0
    return rows


def _freeze(rows: Sequence[Sequence[Number]], kind: str) -> CostMatrix:
    # skips __post_init__: callers build square symmetric zero-diagonal rows
    # from checked costs, their sums, or DefiningPath's finite prefix sums
    m = object.__new__(CostMatrix)
    m.__dict__.update(n=len(rows), table=tuple(tuple(r) for r in rows), kind=kind)
    return m


def _set_pair(rows: list[list[Number]], listed: set[tuple[int, int]], a: int, b: int, v: Number) -> None:
    """Check a listed (a, b, cost) entry and write both halves of it."""
    n = len(rows)
    if a == b or not (1 <= a <= n and 1 <= b <= n):
        raise ValueError(f"bad pair ({a}, {b}) for n={n}")
    if not _is_valid_cost(v):
        raise ValueError(f"bad cost {v!r} for pair ({a}, {b})")
    key = (min(a, b), max(a, b))
    if key in listed and rows[a - 1][b - 1] != v:
        raise ValueError(f"conflicting duplicate for pair {key}")
    listed.add(key)
    rows[a - 1][b - 1] = rows[b - 1][a - 1] = v


def from_pairs(n: int, entries: Iterable[tuple[int, int, Number]]) -> CostMatrix:
    """Build a table from (a, b, cost) triples; unlisted pairs default to inf."""
    if n < 1:
        raise ValueError("need n >= 1")
    rows = _fresh(n, INF)
    listed: set[tuple[int, int]] = set()
    for a, b, v in entries:
        _set_pair(rows, listed, a, b, v)
    return _freeze(rows, "raw")


def metric_path(path: DefiningPath) -> CostMatrix:
    """Charge every pair the weight sum between its labels along the path."""
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


def extended_metric_path_optimized(path: DefiningPath) -> CostMatrix:
    """Closed form for the optimized costs of an extended path table.

    The cheapest swap route for (a, b) walks the path segment between them,
    so the optimized cost is twice the segment sum minus its largest weight.
    """
    n = path.n
    rows = _fresh(n, INF)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            total, top = path.segment(a, b)
            rows[a - 1][b - 1] = rows[b - 1][a - 1] = 2 * total - top
    return _freeze(rows, "optimized")


def is_metric(costs: CostMatrix) -> bool:
    """Triangle inequality over all label triples, infinities absorbing."""
    n = costs.n
    t = costs.table
    for a in range(n):
        for b in range(n):
            if b == a:
                continue
            ab = t[a][b]
            if ab == INF:
                continue
            for c in range(n):
                if c == a or c == b:
                    continue
                if t[a][c] > ab + t[b][c]:
                    return False
    return True


# File format. Cost tables:
#     n 5
#     1 2 3
#     1 3 inf
# Defining paths:
#     path
#     1 3 5 2 4
#     2 1 4 1
# '#' starts a comment; blank lines are skipped.

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
    return v


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_cost_file(text: str) -> CostMatrix:
    lines = list(_content_lines(text))
    if not lines:
        raise CostParseError("empty cost file")
    lineno, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "n":
        raise CostParseError(f"expected 'n <size>', got {head!r}", lineno)
    try:
        n = int(parts[1])
    except ValueError:
        raise CostParseError(f"bad size {parts[1]!r}", lineno) from None
    if n < 1:
        raise CostParseError(f"bad size {n}", lineno)
    rows = _fresh(n, INF)
    listed: set[tuple[int, int]] = set()
    for lineno, line in lines[1:]:
        toks = line.split()
        if len(toks) != 3:
            raise CostParseError(f"expected 'a b cost', got {line!r}", lineno)
        try:
            a, b = int(toks[0]), int(toks[1])
        except ValueError:
            raise CostParseError(f"bad pair in {line!r}", lineno) from None
        v = _parse_value(toks[2], lineno)
        try:
            _set_pair(rows, listed, a, b, v)
        except ValueError as exc:
            raise CostParseError(str(exc), lineno) from None
    return _freeze(rows, "raw")


def parse_path_file(text: str) -> DefiningPath:
    lines = list(_content_lines(text))
    if not lines or lines[0][1] != "path":
        lineno = lines[0][0] if lines else None
        raise CostParseError("expected 'path' header", lineno)
    if len(lines) != 3:
        raise CostParseError("a path file needs an order line and a weight line")
    lineno, order_line = lines[1]
    try:
        order = tuple(int(t) for t in order_line.split())
    except ValueError:
        raise CostParseError(f"bad path order {order_line!r}", lineno) from None
    lineno, weight_line = lines[2]
    weights = tuple(_parse_value(t, lineno) for t in weight_line.split())
    try:
        return DefiningPath(order, weights)
    except ValueError as exc:
        raise CostParseError(str(exc), lineno) from None


def parse_cost_input(text: str) -> CostMatrix | DefiningPath:
    """Dispatch on the header line: 'n <size>' or 'path'."""
    for _, line in _content_lines(text):
        if line == "path":
            return parse_path_file(text)
        return parse_cost_file(text)
    raise CostParseError("empty cost file")


def _format_value(v: Number) -> str:
    if v == INF:
        return "inf"
    if isinstance(v, int):
        return str(v)
    return repr(v)


def format_cost_file(costs: CostMatrix) -> str:
    lines = [f"n {costs.n}"]
    lines += [f"{a} {b} {_format_value(v)}" for a, b, v in costs.entries()]
    return "\n".join(lines) + "\n"


def format_path_file(path: DefiningPath) -> str:
    return "path\n{}\n{}\n".format(
        " ".join(str(v) for v in path.order),
        " ".join(_format_value(w) for w in path.weights),
    )
