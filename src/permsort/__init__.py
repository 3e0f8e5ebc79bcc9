"""Cheap transposition sortings of permutations under arbitrary swap costs.

Workflow: parse or build a cost table, optimize it so every swap price
reflects the cheapest route that realizes the swap, then decompose each
cycle (or the merged cycle) against the optimized table. Every solver,
the oracle's ``mcd_exact`` included, returns ``(Decomposition, cost)`` or
raises InfeasibleError. The oracle cross-checks everything exhaustively on
small instances.

``import permsort`` loads no module. Each public name loads its module
when it is first read, and each command loads only what it runs, so
commands other than ``oracle`` never load the oracle.
"""
from importlib import import_module

__version__ = "0.1.0"

_HOME = {    # each public name and the module that defines it
    "CostMatrix": "costs",
    "DefiningPath": "costs",
    "INF": "costs",
    "extended_metric_path": "costs",
    "format_cost_file": "costs",
    "format_path_file": "costs",
    "from_pairs": "costs",
    "metric_path": "costs",
    "parse_cost_input": "costs",
    "ContractError": "errors",
    "CostParseError": "errors",
    "InfeasibleError": "errors",
    "SizeLimitError": "errors",
    "metric_path_mcd": "mld",
    "min_cost_mld": "mld",
    "std_decomposition": "mld",
    "decompose": "multicycle",
    "merge_cycles": "multicycle",
    "permutation_lower_bound": "multicycle",
    "ShortestSwaps": "optimize",
    "all_pairs_optimize": "optimize",
    "expand_decomposition": "optimize",
    "expand_transposition": "optimize",
    "shortest_swaps": "optimize",
    "mcd_exact": "oracle",
    "Cycle": "permutation",
    "Decomposition": "permutation",
    "Permutation": "permutation",
    "Transposition": "permutation",
    "format_cycles": "permutation",
    "format_one_line": "permutation",
    "nontrivial_cycles": "permutation",
    "parse_cycles": "permutation",
    "parse_one_line": "permutation",
    "permutation_from_cycles": "permutation",
    "validate_decomposition": "permutation",
}
# the modules that hold the public names, and values, whose Frozen they subclass
_MODULES = {*_HOME.values(), "values"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _MODULES:
        value = import_module(f".{name}", __name__)
    else:    # never __main__, whose import runs the command line
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
