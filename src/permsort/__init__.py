"""Cheap transposition sortings of permutations under arbitrary swap costs.

Workflow: parse or build a cost table, optimize it so every swap price
reflects the cheapest route that realizes the swap, then decompose each
cycle (or the merged cycle) against the optimized table. Every solver,
the oracle's ``mcd_exact`` included, returns ``(Decomposition, cost)`` or
raises InfeasibleError. The oracle cross-checks everything exhaustively on
small instances; it, and with it ``heapq``, is imported on first use of
``mcd_exact``, so commands other than ``oracle`` never load it.
"""
from .costs import (
    CostMatrix,
    DefiningPath,
    INF,
    extended_metric_path,
    format_cost_file,
    format_path_file,
    from_pairs,
    metric_path,
    parse_cost_file,
    parse_cost_input,
    parse_path_file,
)
from .errors import ContractError, CostParseError, InfeasibleError, SizeLimitError
from .mld import (
    metric_path_mcd,
    min_cost_mld,
    std_decomposition,
)
from .multicycle import (
    decompose,
    merge_cycles,
    permutation_lower_bound,
)
from .optimize import (
    ShortestSwaps,
    all_pairs_optimize,
    expand_decomposition,
    expand_transposition,
    shortest_swaps,
)
from .permutation import (
    Cycle,
    Decomposition,
    Permutation,
    Transposition,
    compose,
    format_cycles,
    format_one_line,
    inverse,
    nontrivial_cycles,
    parse_cycles,
    parse_one_line,
    permutation_from_cycles,
    transposition_parity,
    validate_decomposition,
)

__version__ = "0.1.0"

def __getattr__(name: str):
    if name == "mcd_exact":
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ContractError",
    "CostMatrix",
    "CostParseError",
    "Cycle",
    "Decomposition",
    "DefiningPath",
    "INF",
    "InfeasibleError",
    "Permutation",
    "ShortestSwaps",
    "SizeLimitError",
    "Transposition",
    "all_pairs_optimize",
    "compose",
    "decompose",
    "expand_decomposition",
    "expand_transposition",
    "extended_metric_path",
    "format_cost_file",
    "format_cycles",
    "format_one_line",
    "format_path_file",
    "from_pairs",
    "inverse",
    "mcd_exact",
    "merge_cycles",
    "metric_path",
    "metric_path_mcd",
    "min_cost_mld",
    "nontrivial_cycles",
    "parse_cost_file",
    "parse_cost_input",
    "parse_cycles",
    "parse_one_line",
    "parse_path_file",
    "permutation_from_cycles",
    "permutation_lower_bound",
    "shortest_swaps",
    "std_decomposition",
    "transposition_parity",
    "validate_decomposition",
]
