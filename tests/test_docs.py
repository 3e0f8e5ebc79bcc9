"""The package's documented surface: its docstring examples run as part of
the suite, ``__all__`` names exactly what ``import *`` hands out, and no
internal check hides in an ``assert`` that ``python -O`` strips."""
import ast
import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import permsort


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(permsort.__path__):
        if info.name == "__main__":
            continue    # importing it runs the command line
        module = importlib.import_module(f"permsort.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted > 0


def test_all_is_sorted_unique_and_resolves():
    names = permsort.__all__
    assert names == sorted(set(names))
    for name in names:
        getattr(permsort, name)    # the oracle's names load it on first use
    # a fresh interpreter, where the oracle is not loaded before the star import
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"from permsort import *\nassert {' and '.join(names)} is not None"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_package_holds_no_assert_statement():
    # a broken internal contract must exit 2 whatever the optimisation level
    found = []
    for path in sorted(Path(permsort.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
