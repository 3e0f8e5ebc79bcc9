"""Cheap transposition sortings of permutations under arbitrary swap costs.

Workflow: parse or build a cost table, optimize it so every swap price
reflects the cheapest route that realizes the swap, then decompose each
cycle (or the merged cycle) against the optimized table. The oracle module
cross-checks everything exhaustively on small instances.
"""
from .costs import (
    CostMatrix,
    DefiningPath,
    INF,
    extended_metric_path,
    extended_metric_path_optimized,
    format_cost_file,
    format_path_file,
    from_pairs,
    is_metric,
    metric_path,
    parse_cost_file,
    parse_cost_input,
    parse_path_file,
)
from .errors import ContractError, CostParseError, InfeasibleError, SizeLimitError
from .mld import (
    metric_path_mcd,
    min_cost_mld,
    mld_table,
    std_decomposition,
)
from .multicycle import (
    BoundReport,
    bound_report,
    decompose,
    merge_cycles,
    merged_decompose,
    permutation_lower_bound,
    sharpened_lower_bound,
)
from .optimize import (
    ShortestSwaps,
    all_pairs_optimize,
    expand_decomposition,
    expand_transposition,
    shortest_swaps,
)
from .oracle import CayleySearchResult, mcd_exact
from .permutation import (
    Cycle,
    Decomposition,
    Permutation,
    Transposition,
    apply_transposition,
    cayley_length,
    compose,
    cycles,
    format_cycles,
    format_one_line,
    inverse,
    nontrivial_cycles,
    parity,
    parse_cycles,
    parse_one_line,
    permutation_from_cycles,
    transposition_parity,
    validate_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CayleySearchResult",
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
    "apply_transposition",
    "bound_report",
    "cayley_length",
    "compose",
    "cycles",
    "decompose",
    "expand_decomposition",
    "expand_transposition",
    "extended_metric_path",
    "extended_metric_path_optimized",
    "format_cost_file",
    "format_cycles",
    "format_one_line",
    "format_path_file",
    "from_pairs",
    "inverse",
    "is_metric",
    "mcd_exact",
    "merge_cycles",
    "merged_decompose",
    "metric_path",
    "metric_path_mcd",
    "min_cost_mld",
    "mld_table",
    "nontrivial_cycles",
    "parity",
    "parse_cost_file",
    "parse_cost_input",
    "parse_cycles",
    "parse_one_line",
    "parse_path_file",
    "permutation_from_cycles",
    "permutation_lower_bound",
    "sharpened_lower_bound",
    "shortest_swaps",
    "std_decomposition",
    "transposition_parity",
    "validate_decomposition",
]
