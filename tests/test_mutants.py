"""The mutant records in ``tests/mutants.py`` still match the package.

Running the mutants takes tens of seconds and is a CI step of its own;
this only checks, in milliseconds, that every old text occurs exactly once
in its file and every node names a test function, so a refactor that
moves mutated code fails here and its author updates the record.
"""
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "permsort"


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_old_text_occurs_once(mutant):
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.nodes and mutant.reason
    for node in mutant.nodes:
        path, name = node.split("::")
        assert f"\ndef {name.partition('[')[0]}(" in (ROOT / path).read_text(), node
