"""Command line front end.

Exit codes: 0 success, 1 malformed input (files or arguments), 2 internal
contract violation, 3 infeasible (an infinite cost where a finite one is
required), 4 exhaustive-search size guard.

Every decomposition is validated against its permutation before anything
is printed; a decomposer that lies exits 2 rather than printing garbage.
"""
from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path

from .costs import (
    CostMatrix,
    DefiningPath,
    INF,
    _format_value,
    format_cost_file,
    from_pairs,
    metric_path,
    parse_cost_input,
    tolerance,
)
from .errors import ContractError, CostParseError, InfeasibleError, SizeLimitError
from .mld import mld_cost
from .multicycle import METHODS, decompose, mld_std_totals, permutation_lower_bound
from .optimize import all_pairs_optimize, expand_decomposition, shortest_swaps
from .oracle import DEFAULT_LIMIT, mcd_exact
from .permutation import (
    Cycle,
    cycles,
    format_cycles,
    format_one_line,
    parse_cycles,
    parse_one_line,
    validate_decomposition,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONTRACT = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4

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
    p_or.add_argument("--limit", type=int, default=None,
                      help=f"size guard (default {DEFAULT_LIMIT}, or "
                           "PERMSORT_LIMIT if set)")
    return parser


def _load_costs(path: str) -> tuple[CostMatrix, DefiningPath | None]:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CostParseError(f"cannot read {path}: {e}") from None
    parsed = parse_cost_input(text)
    if isinstance(parsed, DefiningPath):
        return metric_path(parsed), parsed
    return parsed, None


def _load_permutation(arg: str, n: int):
    text = arg
    # os.path.exists says False, not an error, for inline text too long to
    # be a file name
    if os.path.exists(arg):
        try:
            text = Path(arg).read_text()
        except OSError as e:
            raise CostParseError(f"cannot read {arg}: {e}") from None
    text = text.strip()
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


def _env_limit() -> int:
    raw = os.environ.get("PERMSORT_LIMIT")
    if raw is None:
        return DEFAULT_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise CostParseError(f"PERMSORT_LIMIT must be an integer, got {raw!r}") from None


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise CostParseError(f"cannot write {path}: {e}") from None


def _cmd_optimize(args) -> int:
    raw, _ = _load_costs(args.costs)
    opt = all_pairs_optimize(raw)
    lines = []
    for a, b, v in raw.entries():
        w = opt.cost(a, b)
        if w != v:
            lines.append(f"{a} {b}: {_format_value(v)} -> {_format_value(w)}")
    lines.append(f"{len(lines)} entries changed")
    if args.output:
        # written before anything is printed, so a failed write prints nothing
        _write_output(args.output, format_cost_file(opt))
        lines.append(f"wrote {args.output}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_decompose(args) -> int:
    raw, path = _load_costs(args.costs)
    p = _load_permutation(args.perm, raw.n)
    joins = _parse_joins(args.join) if args.join is not None else None
    if joins is not None and args.method != "merge":
        raise CostParseError("--join only makes sense with --method merge")
    if args.expand and args.method == "metric-exact":
        raise CostParseError("--expand applies to optimized-table methods only")

    if args.method == "metric-exact":
        if path is None:
            raise CostParseError("metric-exact needs a defining-path file")
        d, cost = decompose(p, raw, "metric-exact", defining_path=path)
        dist = raw.table    # a path metric is its own distance table
    else:
        engine = shortest_swaps(raw)
        phi = raw.assume_optimized() if args.trust_raw else engine.optimized
        d, cost = decompose(p, phi, args.method, joins=joins)
        dist = engine.dist
    lower_bound = permutation_lower_bound(p, dist)
    if not validate_decomposition(d, p):
        raise ContractError("decomposition failed validation")

    print(f"permutation: {format_one_line(p)}")
    print(f"cycles: {format_cycles(cycles(p), skip_fixed=True)}")
    print(f"method: {args.method}")
    print(f"lower bound: {_format_value(lower_bound)}")
    print(f"cost: {_format_value(cost)}")
    if lower_bound > 0:
        print(f"ratio: {cost / lower_bound:.6f}")
    elif cost == 0 and not p.is_identity():
        print("ratio: 0.000000")    # free swaps meet a zero bound
    print("# transpositions are applied right-to-left")
    print(f"decomposition: {d if len(d) else '(none)'}")

    if args.expand:
        # a trusted table's swaps already are raw swaps
        expanded = d if args.trust_raw else expand_decomposition(d, engine)
        if not validate_decomposition(expanded, p):
            raise ContractError("expanded decomposition failed validation")
        print("# same permutation in raw swaps, applied right-to-left")
        print(f"expansion: {expanded if len(expanded) else '(none)'}")
        print(f"expansion cost: {_format_value(expanded.cost(raw))}")
    return EXIT_OK


def bench_rows(kmin: int, kmax: int, trials: int, seed: int) -> list[tuple[int, int, float, float]]:
    """Mean decomposition cost of a full k-cycle under random uniform costs.

    Deterministic per (seed, k, trial); each trial draws a fresh table and
    decomposes the canonical cycle (1 .. k) with and without optimizing.
    """
    rows = []
    for k in range(kmin, kmax + 1):
        raw_sum = 0.0
        opt_sum = 0.0
        cyc = Cycle(tuple(range(1, k + 1)))
        for t in range(trials):
            rng = random.Random(seed * 1_000_003 + k * 10_007 + t)
            entries = [(a, b, rng.random())
                       for a in range(1, k + 1) for b in range(a + 1, k + 1)]
            table = from_pairs(k, entries)
            raw_sum += mld_cost(cyc, table.assume_optimized())
            opt_sum += mld_cost(cyc, all_pairs_optimize(table))
        rows.append((k, trials, raw_sum / trials, opt_sum / trials))
    return rows


def _cmd_bench(args) -> int:
    if not (BENCH_MIN_K <= args.kmin <= args.kmax <= BENCH_MAX_K):
        raise CostParseError(
            f"need {BENCH_MIN_K} <= kmin <= kmax <= {BENCH_MAX_K}, "
            f"got {args.kmin}..{args.kmax}")
    if args.trials < 1:
        raise CostParseError("--trials must be at least 1")
    rows = bench_rows(args.kmin, args.kmax, args.trials, args.seed)
    lines = ["k,trials,mean_raw,mean_opt"]
    lines += [f"{k},{t},{r:.6f},{o:.6f}" for k, t, r, o in rows]
    csv = "\n".join(lines) + "\n"
    if args.output:
        _write_output(args.output, csv)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    raw, _ = _load_costs(args.costs)
    p = _load_permutation(args.perm, raw.n)
    limit = args.limit if args.limit is not None else _env_limit()
    result = mcd_exact(p, raw, limit)
    if result.min_cost == INF:
        raise InfeasibleError("target unreachable: some required swap has no finite route")
    witness = result.witness
    assert witness is not None
    if not validate_decomposition(witness, p):
        raise ContractError("oracle witness failed validation")

    l_total, s_total = mld_std_totals(p, all_pairs_optimize(raw))

    m = result.min_cost
    print(f"permutation: {format_one_line(p)}")
    print(f"witness: {witness if len(witness) else '(none)'}")
    tol = tolerance(m, l_total, s_total)
    ok = m <= l_total + tol and l_total <= s_total + tol and s_total <= 4 * m + tol
    verdict = "chain OK" if ok else "chain VIOLATED"
    print(f"M={_format_value(m)} L={_format_value(l_total)} S={_format_value(s_total)} {verdict}")
    if not ok:
        raise ContractError("M <= L <= S <= 4M failed")
    return EXIT_OK


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
        return handler(args)
    except ValueError as e:    # CostParseError included
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SizeLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except InfeasibleError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ContractError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    raise SystemExit(main())
