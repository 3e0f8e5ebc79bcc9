"""Every command's exit code, stdout and stderr, byte for byte.

The inputs are written from fixed seeds into a fresh directory, and every
command names them relatively, so no output holds a temporary path. Each
``cli.main`` call must give the ``(exit code, stdout, stderr)`` recorded in
``outputs.json`` next to this file. The test only reads that file. It was
recorded once, from the repository root, with

    PYTHONPATH=src:tests python -c "import test_outputs; test_outputs.record()"

and is recorded again only for a change that means to alter some output,
or adds commands, from the tree before that change.
"""
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from permsort.cli import main

RECORDED = Path(__file__).with_name("outputs.json")


def _table(n: int, entries) -> str:
    return f"n {n}\n" + "".join(f"{a} {b} {v}\n" for a, b, v in entries)


def _dense(n: int, seed: int) -> str:
    rng = random.Random(seed)
    return _table(n, [(a, b, rng.randint(1, 100))
                      for a in range(1, n + 1) for b in range(a + 1, n + 1)])


def _sparse(n: int, seed: int) -> str:
    # a random tree keeps every label reachable; a fifth of the other
    # pairs are listed too, the rest are infinite
    rng = random.Random(seed)
    tree = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    return _table(n, [(a, b, rng.randint(1, 100))
                      for a in range(1, n + 1) for b in range(a + 1, n + 1)
                      if (a, b) in tree or rng.random() < 0.2])


def _shuffled(n: int, seed: int) -> str:
    images = list(range(1, n + 1))
    random.Random(seed).shuffle(images)
    return " ".join(map(str, images)) + "\n"


def _inputs() -> dict[str, str]:
    rng = random.Random(6)
    ties = _table(6, [(a, b, rng.choice(("0.5", "1.25", "2.0")))
                      for a in range(1, 7) for b in range(a + 1, 7)])
    # labels 1..4 and 5..8 never meet: every pair across is 'inf'
    split = _table(8, [(a, b, rng.randint(1, 9) if (a <= 4) == (b <= 4) else "inf")
                       for a in range(1, 9) for b in range(a + 1, 9)])
    order = list(range(1, 8))
    rng.shuffle(order)
    path = "path\n{}\n{}\n".format(" ".join(map(str, order)),
                                   " ".join(str(rng.randint(1, 9)) for _ in range(6)))
    # one-decimal costs: their sums round, so a total's bytes depend on the
    # order its terms are added in, which must be the same on every Python
    rng = random.Random(15)
    tenths = _table(14, [(a, b, rng.randint(1, 50) / 10)
                         for a in range(1, 15) for b in range(a + 1, 15)])
    rng = random.Random(31)
    order = list(range(1, 31))
    rng.shuffle(order)
    tenths_path = "path\n{}\n{}\n".format(" ".join(map(str, order)),
                                          " ".join(str(rng.randint(1, 50) / 10) for _ in range(29)))
    return {"dense12.cost": _dense(12, 12), "sparse12.cost": _sparse(12, 13),
            "dense40.cost": _dense(40, 40), "sparse40.cost": _sparse(40, 41),
            "ties.cost": ties, "split.cost": split, "line.path": path,
            "tenths.cost": tenths, "tenths.path": tenths_path,
            "p12.perm": _shuffled(12, 120), "p40.perm": _shuffled(40, 400),
            "p7.perm": _shuffled(7, 70), "p14.perm": _shuffled(14, 150),
            "p30.perm": _shuffled(30, 310)}


def _decompose(costs: str, perm: str, method: str, *flags: str) -> tuple[str, ...]:
    return ("decompose", costs, perm, "--method", method) + flags


COMMANDS = [
    ("optimize", "dense12.cost"),
    ("optimize", "sparse40.cost"),
    ("optimize", "ties.cost"),
    ("optimize", "split.cost"),
    ("optimize", "line.path", "-o", "line.opt"),
    _decompose("dense12.cost", "p12.perm", "mld"),
    _decompose("dense12.cost", "p12.perm", "mld", "--expand"),
    _decompose("dense12.cost", "p12.perm", "mld", "--trust-raw"),
    _decompose("dense12.cost", "p12.perm", "mld", "--trust-raw", "--expand"),
    _decompose("dense12.cost", "p12.perm", "std"),
    _decompose("dense12.cost", "p12.perm", "std", "--expand"),
    _decompose("dense12.cost", "p12.perm", "std", "--trust-raw"),
    _decompose("dense12.cost", "p12.perm", "merge"),
    _decompose("dense12.cost", "p12.perm", "merge", "--expand"),
    _decompose("dense12.cost", "p12.perm", "merge", "--trust-raw", "--expand"),
    _decompose("dense12.cost", "(1 5 9)(2 7)(3 11 4)", "merge", "--join", "1,2;7,3", "--expand"),
    _decompose("sparse12.cost", "p12.perm", "mld", "--expand"),
    _decompose("sparse12.cost", "p12.perm", "std"),
    _decompose("sparse12.cost", "p12.perm", "merge", "--expand"),
    _decompose("dense40.cost", "p40.perm", "mld", "--expand"),
    _decompose("dense40.cost", "p40.perm", "std", "--trust-raw"),
    _decompose("sparse40.cost", "p40.perm", "mld"),
    _decompose("sparse40.cost", "p40.perm", "std", "--expand"),
    _decompose("sparse40.cost", "p40.perm", "merge", "--expand"),
    _decompose("ties.cost", "(1 2 3 4 5 6)", "mld", "--expand"),
    _decompose("ties.cost", "(1 2 3 4 5 6)", "std"),
    _decompose("ties.cost", "(1 2 6 3 5 4)", "std", "--trust-raw", "--expand"),
    _decompose("ties.cost", "(1 2 3 4 5 6)", "merge"),
    _decompose("split.cost", "(1 3)(2 4)(5 8 6)", "mld", "--expand"),
    _decompose("split.cost", "(1 5)", "mld"),
    _decompose("split.cost", "(1 2)(5 6)", "merge"),
    _decompose("line.path", "p7.perm", "metric-exact"),
    _decompose("line.path", "p7.perm", "mld", "--expand"),
    _decompose("line.path", "p7.perm", "merge"),
    _decompose("line.path", "p7.perm", "metric-exact", "--expand"),
    ("oracle", "ties.cost", "(1 2 3 4 5 6)"),
    ("oracle", "split.cost", "(1 3)(2 4)(5 8 6)", "--limit", "8"),
    ("oracle", "line.path", "p7.perm"),
    ("oracle", "dense12.cost", "p12.perm"),
    ("bench", "3", "6", "--trials", "3"),
    _decompose("tenths.cost", "p14.perm", "mld", "--expand"),
    _decompose("tenths.cost", "p14.perm", "std", "--expand"),
    _decompose("tenths.cost", "p14.perm", "merge"),
    _decompose("tenths.cost", "p14.perm", "merge", "--expand"),
    _decompose("tenths.path", "p30.perm", "metric-exact"),
    _decompose("tenths.path", "p30.perm", "mld", "--expand"),
]


def _write_inputs(directory: Path) -> None:
    for name, text in _inputs().items():
        (directory / name).write_text(text)


def _run(argv: tuple[str, ...]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return [code, out.getvalue(), err.getvalue()]


def record() -> None:
    """Write ``outputs.json`` from the package on the import path."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        _write_inputs(Path(directory))
        os.chdir(directory)
        try:
            outputs = {" ".join(argv): _run(argv) for argv in COMMANDS}
        finally:
            os.chdir(here)
    RECORDED.write_text(json.dumps(outputs, indent=1) + "\n")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("outputs")
    _write_inputs(directory)
    return directory


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORDED.read_text())


def test_every_command_is_recorded(recorded):
    assert list(recorded) == [" ".join(argv) for argv in COMMANDS]


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_matches_the_recording(argv, inputs, recorded, monkeypatch):
    monkeypatch.chdir(inputs)
    assert _run(argv) == recorded[" ".join(argv)]
