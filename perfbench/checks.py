"""Output checks: every permsort output against the independent reference.

Checking is split in two. ``expect_*`` takes an instance's ``check`` dict
(written by gen.py) and computes the reference answers; run.py calls it in
set-up, once per instance. ``check_*`` takes the instance, those answers and
the command's standard output, and returns a list of problems, empty when
the output is right. Nothing is compared against saved program output.
"""
from __future__ import annotations

import re

import reference as ref

_SWAP = re.compile(r"\((\d+) (\d+)\)")


def _number(text: str) -> float:
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return float(text)


def _swaps(text: str) -> list[tuple[int, int]]:
    text = text.strip()
    if text == "(none)":
        return []
    swaps = [(int(a), int(b)) for a, b in _SWAP.findall(text)]
    if "".join(f"({a} {b})" for a, b in swaps) != text:
        raise ValueError(f"unreadable transposition list {text[:60]!r}")
    return swaps


def _fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        if line.startswith("#") or ": " not in line:
            continue
        key, value = line.split(": ", 1)
        fields[key] = value
    return fields


def _require(problems: list[str], ok: bool, what: str):
    if not ok:
        problems.append(what)


def expect_decompose(c: dict) -> dict:
    """Reference answers for decompose (mld or merge)."""
    w, images = c["table"], tuple(c["images"])
    phi = ref.phi_star(w)
    cyc = ref.cycles(images)
    want = {"phi": phi, "floor": ref.floor(images, ref.distances(w)), "joined": True}
    if c["method"] == "merge":
        # joins (m-1 of them) then an MLD of the merged cycle
        joins = ref.kruskal_joins(images, phi)
        whole = ref.cycles(ref.merged(images, joins))
        join_cost = ref.swap_cost(joins, phi)
        want["joined"] = len(whole) == 1
        want["length"] = len(joins) + sum(len(x) - 1 for x in whole)
        want["cost"] = join_cost + sum(ref.interval_dp(x, phi) for x in whole)
        want["upper"] = join_cost + sum(ref.chain(x, phi) for x in whole)
    else:
        want["length"] = sum(len(x) - 1 for x in cyc)
        want["cost"] = sum(ref.interval_dp(x, phi) for x in cyc)
        want["upper"] = sum(ref.chain(x, phi) for x in cyc)
    return want


def check_decompose(c: dict, want: dict, out: str) -> list[str]:
    """decompose (mld or merge), optionally with --expand."""
    w, images = c["table"], tuple(c["images"])
    n = len(images)
    phi, floor, upper = want["phi"], want["floor"], want["upper"]
    problems: list[str] = []
    try:
        f = _fields(out)
        seq = _swaps(f["decomposition"])
        cost = _number(f["cost"])
        lower = _number(f["lower bound"])
    except (KeyError, ValueError) as e:
        return [f"unreadable output: {e!r}"]
    _require(problems, want["joined"], "reference joins leave several cycles")
    _require(problems, f.get("permutation") == " ".join(map(str, images)),
             "permutation line differs from the input")
    _require(problems, ref.product(n, seq) == images,
             "decomposition does not multiply back to the input")
    _require(problems, len(seq) == want["length"],
             f"decomposition length {len(seq)}, expected {want['length']}")
    _require(problems, cost == ref.swap_cost(seq, phi),
             f"cost {cost} is not the phi* sum {ref.swap_cost(seq, phi)}")
    _require(problems, cost == want["cost"], f"cost {cost}, reference {want['cost']}")
    _require(problems, lower == floor, f"lower bound {lower}, reference {floor}")
    _require(problems, floor <= cost <= upper,
             f"floor {floor} <= cost {cost} <= S {upper} fails")
    if c["expand"]:
        try:
            expansion = _swaps(f["expansion"])
            expansion_cost = _number(f["expansion cost"])
        except (KeyError, ValueError) as e:
            return problems + [f"unreadable expansion: {e!r}"]
        raw = ref.swap_cost(expansion, w)
        _require(problems, ref.product(n, expansion) == images,
                 "expansion does not multiply back to the input")
        _require(problems, raw == expansion_cost == cost,
                 f"expansion raw cost {raw}, printed {expansion_cost}, decomposition {cost}")
    return problems


def expansion_swaps(out: str) -> int:
    """Raw swaps printed on the expansion line (0 when there is none)."""
    return len(_SWAP.findall(_fields(out).get("expansion", "")))


def expect_oracle(c: dict) -> dict:
    w, images = c["table"], tuple(c["images"])
    phi = ref.phi_star(w)
    cyc = ref.cycles(images)
    return {"m": ref.sorting_cost(images, w),
            "l": sum(ref.interval_dp(x, phi) for x in cyc),
            "s": sum(ref.chain(x, phi) for x in cyc),
            "floor": ref.floor(images, ref.distances(w))}


def check_oracle(c: dict, want: dict, out: str) -> list[str]:
    w, images = c["table"], tuple(c["images"])
    n = len(images)
    problems: list[str] = []
    try:
        f = _fields(out)
        witness = _swaps(f["witness"])
        last = out.strip().splitlines()[-1]
        m_text, l_text, s_text, verdict = re.fullmatch(
            r"M=(\S+) L=(\S+) S=(\S+) (.*)", last).groups()
        m, l_cost, s_cost = _number(m_text), _number(l_text), _number(s_text)
    except (KeyError, ValueError, AttributeError, IndexError) as e:
        return [f"unreadable output: {e!r}"]
    floor = want["floor"]
    _require(problems, m == want["m"], f"M={m}, reference search gives {want['m']}")
    _require(problems, ref.product(n, witness) == images,
             "witness does not multiply back to the input")
    _require(problems, ref.swap_cost(witness, w) == m,
             f"witness costs {ref.swap_cost(witness, w)}, M={m}")
    _require(problems, l_cost == want["l"], f"L={l_cost}, reference {want['l']}")
    _require(problems, s_cost == want["s"], f"S={s_cost}, reference {want['s']}")
    _require(problems, floor <= m <= l_cost <= s_cost <= 4 * m,
             f"floor {floor} <= M <= L <= S <= 4M fails")
    _require(problems, verdict == "chain OK", f"verdict {verdict!r}")
    return problems


def expect_sweep(c: dict) -> list[tuple[int, int, float, float]]:
    return ref.sweep_rows(c["kmin"], c["kmax"], c["trials"], c["seed"])


def check_sweep(c: dict, want: list, out: str) -> list[str]:
    lines = out.strip().splitlines()
    if not lines or lines[0] != "k,trials,mean_raw,mean_opt":
        return ["missing csv header"]
    if len(lines) - 1 != len(want):
        return [f"{len(lines) - 1} rows, expected {len(want)}"]
    problems: list[str] = []
    for line, (k, trials, mean_raw, mean_opt) in zip(lines[1:], want):
        try:
            got_k, got_t, got_raw, got_opt = line.split(",")
            ok = (int(got_k) == k and int(got_t) == trials
                  and abs(float(got_raw) - mean_raw) <= 1e-6
                  and abs(float(got_opt) - mean_opt) <= 1e-6)
        except ValueError:
            ok = False
        _require(problems, ok, f"row {line!r}, reference {k},{trials},{mean_raw:.6f},{mean_opt:.6f}")
    return problems


# workload -> (reference answers, output check)
CHECKS = {
    "decompose-cli": (expect_decompose, check_decompose),
    "long-cycle": (expect_decompose, check_decompose),
    "paper-sweep": (expect_sweep, check_sweep),
    "oracle": (expect_oracle, check_oracle),
}
