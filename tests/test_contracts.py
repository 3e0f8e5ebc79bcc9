"""Internal contract checks, each reached by breaking the step it guards.

No correct input reaches these raise sites, so each case patches a helper
to misbehave, or corrupts a value, and pins the exception class and text.
"""
import pytest

from permsort import (
    ContractError,
    Cycle,
    Decomposition,
    DefiningPath,
    InfeasibleError,
    Transposition,
    decompose,
    expand_transposition,
    from_pairs,
    merge_cycles,
    metric_path_mcd,
    min_cost_mld,
    parse_cycles,
    shortest_swaps,
)
from permsort import mld, multicycle, optimize
from permsort.values import Frozen, set_field

# the paths 1 - 2 - 3 and 1 - ... - 4 at unit cost; their phi* is finite everywhere
LINE3 = from_pairs(3, [(1, 2, 1), (2, 3, 1)])
LINE4 = from_pairs(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])


def _wrong_mld(cycle, costs):
    return Decomposition((Transposition(1, 2),)), 1


def _path_with_falling_prefix():
    # prefix sums 0, 5, 1: the distances 5, 4 and 1 break the triangle
    # inequality, so no tree meets half the ring sum
    path = DefiningPath((1, 2, 3), (1, 1))
    set_field(path, "prefix", (0, 5, 1))
    return path


def _engine_with_looping_hops():
    engine = shortest_swaps(LINE3)
    engine.hop[0][2], engine.hop[1][2] = 1, 0    # 1 -> 2 -> 1 -> ... on the way to 3
    return engine


def _drop_middle(palindrome):
    def broken(path, centre):
        seq = palindrome(path, centre)
        del seq[len(seq) // 2]
        return seq
    return broken


# (patches, call, exception class, message); a patch (module, name, wrap)
# replaces module.name by wrap(module.name)
CASES = [
    ([(mld, "_rebuild", lambda f: lambda *a: f(*a)[1:])],
     lambda: min_cost_mld(Cycle((1, 2, 3)), shortest_swaps(LINE3).optimized),
     ContractError, "1 transpositions for a 3-cycle"),
    ([(mld, "_rebuild", lambda f: lambda *a: f(*a)[::-1])],
     lambda: min_cost_mld(Cycle((1, 2, 3)), shortest_swaps(LINE3).optimized),
     ContractError, "decomposition (2 3)(1 2) does not multiply to (1 2 3)"),
    ([],
     lambda: metric_path_mcd(Cycle((1, 2, 3)), _path_with_falling_prefix()),
     ContractError, "min-Cartesian tree misses the half-total floor"),
    ([(multicycle, "_moves", lambda f: lambda d: {})],
     lambda: merge_cycles(parse_cycles("(1 2)(3 4)", 4), shortest_swaps(LINE4).optimized),
     ContractError, "joining product did not produce one cycle over the moved elements"),
    ([(multicycle, "min_cost_mld", lambda f: _wrong_mld)],
     lambda: decompose(parse_cycles("(1 2 3)", 3), shortest_swaps(LINE3).optimized, "mld"),
     ContractError, "per-cycle decomposition does not multiply back to the input"),
    ([(multicycle, "min_cost_mld", lambda f: _wrong_mld)],
     lambda: decompose(parse_cycles("(1 2)(3 4)", 4), shortest_swaps(LINE4).optimized, "merge"),
     ContractError, "merged decomposition does not multiply back to the input"),
    ([],
     lambda: shortest_swaps(from_pairs(3, [(1, 2, 1)])).path(1, 3),
     InfeasibleError, "vertex 3 is unreachable from 1"),
    ([],
     lambda: _engine_with_looping_hops().path(1, 3),
     ContractError, "next-hop chain from 1 to 3 does not end"),
    ([(optimize, "_palindrome", _drop_middle)],
     lambda: expand_transposition(1, 3, shortest_swaps(LINE3)),
     ContractError, "expansion of (1, 3) does not multiply back"),
    ([],
     lambda: Frozen.__init__(object.__new__(Cycle), (1, 2), "extra"),
     TypeError, "Cycle takes 1 values, got 2"),
]


def test_contract_checks_raise_their_messages(monkeypatch):
    for patches, call, kind, message in CASES:
        with monkeypatch.context() as patched:
            for module, name, wrap in patches:
                patched.setattr(module, name, wrap(getattr(module, name)))
            with pytest.raises(Exception) as caught:
                call()
        assert (caught.type, str(caught.value)) == (kind, message)
