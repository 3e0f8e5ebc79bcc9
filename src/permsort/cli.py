"""Command line front end.

Exit codes: 0 success, 1 malformed input (files or arguments), 2 internal
contract violation, 3 infeasible (an infinite cost where a finite one is
required), 4 size guard (the exhaustive search's limit, or a cost table past
``TABLE_LIMIT`` labels).

Each command returns its whole output, which ``main`` writes only once the
command has succeeded: a failed command prints nothing to stdout, and a
decomposer that lies exits 2 rather than printing garbage.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .costs import (
    CostMatrix,
    DefiningPath,
    _format_value,
    format_cost_file,
    metric_path,
    parse_cost_input,
    tolerance,
)
from .errors import DEFAULT_LIMIT, ContractError, CostParseError, InfeasibleError, SizeLimitError
from .multicycle import METHODS, decompose, permutation_lower_bound
from .optimize import all_pairs_optimize, expand_decomposition, shortest_swaps
from .permutation import (
    format_cycles,
    format_one_line,
    nontrivial_cycles,
    parse_cycles,
    parse_one_line,
    validate_decomposition,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONTRACT = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4

# CostParseError is a ValueError; no other class here subclasses another
_EXIT_CODES = {
    ValueError: EXIT_INPUT,
    ContractError: EXIT_CONTRACT,
    InfeasibleError: EXIT_INFEASIBLE,
    SizeLimitError: EXIT_LIMIT,
}

BENCH_MIN_K = 3
BENCH_MAX_K = 14


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for broken
    # internal contracts, so usage problems leave through 1 instead
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="permsort",
                     description="sort permutations by cheap transpositions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="replace expensive swaps by cheap routes")
    p_opt.add_argument("costs", help="cost table or defining-path file")
    p_opt.add_argument("-o", "--output", help="write the optimized table here")

    p_dec = sub.add_parser("decompose", help="sort a permutation cheaply")
    p_dec.add_argument("costs", help="cost table or defining-path file")
    p_dec.add_argument("perm", help="permutation: file or inline, one-line "
                                    "images ('3 1 2') or cycles ('(1 3 2)')")
    p_dec.add_argument("--method", choices=METHODS, default="mld")
    p_dec.add_argument("--expand", action="store_true",
                       help="also print the sequence rewritten in raw swaps")
    p_dec.add_argument("--join", default=None,
                       help="force these cycle joins for --method merge, "
                            "e.g. '1,2;3,8'")
    p_dec.add_argument("--trust-raw", action="store_true",
                       help="treat the table as already optimized")

    p_bench = sub.add_parser("bench", help="random tables: raw vs optimized")
    p_bench.add_argument("kmin", type=int)
    p_bench.add_argument("kmax", type=int)
    p_bench.add_argument("--trials", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("-o", "--output", help="write the csv here")

    p_or = sub.add_parser("oracle", help="exhaustive check on a small instance")
    p_or.add_argument("costs", help="cost table or defining-path file")
    p_or.add_argument("perm", help="permutation, file or inline")
    p_or.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                      help=f"size guard (default {DEFAULT_LIMIT})")
    return parser


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise CostParseError(f"cannot read {path}: {e}") from None


def _load_costs(path: str, keep_path: bool = False) -> CostMatrix | DefiningPath:
    """The cost table in the file; a defining path becomes its distance
    table unless ``keep_path`` asks for the path itself."""
    parsed = parse_cost_input(_read(path))
    if isinstance(parsed, DefiningPath) and not keep_path:
        return metric_path(parsed)
    return parsed


def _load_permutation(arg: str, n: int):
    # os.path.exists says False, not an error, for inline text too long to
    # be a file name
    text = (_read(arg) if os.path.exists(arg) else arg).strip()
    perm = parse_cycles(text, n) if text.startswith("(") else parse_one_line(text)
    if perm.n != n:
        raise CostParseError(f"permutation has n={perm.n}, cost table has n={n}")
    return perm


def _parse_joins(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.replace(",", " ").split()
        if len(bits) != 2:
            raise CostParseError(f"bad join {part!r}: expected two labels")
        try:
            out.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise CostParseError(f"bad join {part!r}: labels must be integers") from None
    if not out:
        raise CostParseError("empty join list")
    return out


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise CostParseError(f"cannot write {path}: {e}") from None


def _cmd_optimize(args) -> str:
    raw = _load_costs(args.costs)
    opt = all_pairs_optimize(raw)
    lines = []
    for a, b, v in raw.entries():
        w = opt.cost(a, b)
        if w != v:
            lines.append(f"{a} {b}: {_format_value(v)} -> {_format_value(w)}")
    lines.append(f"{len(lines)} entries changed")
    if args.output:
        _write_output(args.output, format_cost_file(opt))
        lines.append(f"wrote {args.output}")
    return "\n".join(lines) + "\n"


def _cmd_decompose(args) -> str:
    # which flags the method reads, decided before any file is read
    if args.join is not None and args.method != "merge":
        raise CostParseError("--join only makes sense with --method merge")
    table_flag = "--expand" if args.expand else "--trust-raw" if args.trust_raw else None
    if table_flag and args.method == "metric-exact":
        raise CostParseError(f"{table_flag} applies to optimized-table methods only")
    # metric-exact reads the path itself and never builds its n^2 table
    raw = _load_costs(args.costs, keep_path=args.method == "metric-exact")
    p = _load_permutation(args.perm, raw.n)
    joins = _parse_joins(args.join) if args.join is not None else None

    if args.method == "metric-exact":
        table = dist = raw    # path distances already are shortest
    else:
        engine = shortest_swaps(raw)
        table = raw.assume_optimized() if args.trust_raw else engine.optimized
        dist = engine.dist
    d, cost = decompose(p, table, args.method, joins=joins)
    lower_bound = permutation_lower_bound(p, dist)

    lines = [f"permutation: {format_one_line(p)}",
             f"cycles: {format_cycles(nontrivial_cycles(p))}",
             f"method: {args.method}",
             f"lower bound: {_format_value(lower_bound)}",
             f"cost: {_format_value(cost)}"]
    if lower_bound > 0:
        lines.append(f"ratio: {cost / lower_bound:.6f}")
    elif cost == 0 and not p.is_identity():
        lines.append("ratio: 0.000000")    # free swaps meet a zero bound
    lines += ["# transpositions are applied right-to-left",
              f"decomposition: {d if len(d) else '(none)'}"]

    if args.expand:
        # a trusted table's swaps already are raw swaps
        expanded = d if args.trust_raw else expand_decomposition(d, engine)
        if not validate_decomposition(expanded, p):
            raise ContractError("expanded decomposition failed validation")
        lines += ["# same permutation in raw swaps, applied right-to-left",
                  f"expansion: {expanded if len(expanded) else '(none)'}",
                  f"expansion cost: {_format_value(expanded.cost(raw))}"]
    return "\n".join(lines) + "\n"


def _cmd_bench(args) -> str:
    if not (BENCH_MIN_K <= args.kmin <= args.kmax <= BENCH_MAX_K):
        raise CostParseError(
            f"need {BENCH_MIN_K} <= kmin <= kmax <= {BENCH_MAX_K}, "
            f"got {args.kmin}..{args.kmax}")
    if args.trials < 1:
        raise CostParseError("--trials must be at least 1")
    if args.trials > sys.maxsize:    # the sweep counts trials with islice
        raise CostParseError(f"--trials must be at most {sys.maxsize}")
    from .bench import bench_rows    # the only command that loads the sweep
    rows = bench_rows(args.kmin, args.kmax, args.trials, args.seed)
    lines = ["k,trials,mean_raw,mean_opt"]
    lines += [f"{k},{t},{r:.6f},{o:.6f}" for k, t, r, o in rows]
    csv = "\n".join(lines) + "\n"
    if not args.output:
        return csv
    _write_output(args.output, csv)
    return f"wrote {args.output}\n"


def _cmd_oracle(args) -> str:
    if args.limit < 1:
        raise CostParseError("--limit must be at least 1")
    # the only command that searches; the others never load the oracle
    from .oracle import _check_limit, mcd_exact

    raw = _load_costs(args.costs)
    p = _load_permutation(args.perm, raw.n)
    _check_limit(p.n, args.limit)    # before the O(n^3) engine
    # one Floyd-Warshall: the oracle's floor, and phi* for L and S
    engine = shortest_swaps(raw)
    witness, m = mcd_exact(p, engine, args.limit)
    l_total = decompose(p, engine.optimized, "mld")[1]
    s_total = decompose(p, engine.optimized, "std")[1]

    chain = f"M={_format_value(m)} L={_format_value(l_total)} S={_format_value(s_total)}"
    tol = tolerance(m, l_total, s_total)
    if not (m <= l_total + tol and l_total <= s_total + tol and s_total <= 4 * m + tol):
        raise ContractError(f"M <= L <= S <= 4M failed: {chain}")
    return (f"permutation: {format_one_line(p)}\n"
            f"witness: {witness if len(witness) else '(none)'}\n"
            f"{chain} chain OK\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    handler = {
        "optimize": _cmd_optimize,
        "decompose": _cmd_decompose,
        "bench": _cmd_bench,
        "oracle": _cmd_oracle,
    }[args.command]
    try:
        text = handler(args)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(e, cls))
    sys.stdout.write(text)
    return EXIT_OK
