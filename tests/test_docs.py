"""The package's docstring examples run as part of the suite."""
import doctest
import importlib
import pkgutil

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
