import pytest

from permsort import CostMatrix, ShortestSwaps


@pytest.fixture
def engines_built(monkeypatch):
    """Every ShortestSwaps built during the test: one per ``shortest_swaps``
    call, each a run of its Floyd-Warshall loop.

    The hook sits on the class, so it sees every construction whatever name
    a module imported the engine under.
    """
    built = []
    init = ShortestSwaps.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ShortestSwaps, "__init__", counting_init)
    return built


@pytest.fixture
def tables_checked(monkeypatch):
    """Every CostMatrix whose entries were all checked during the test.

    ``CostMatrix.__init__`` calls ``self._check()``, which Python looks up on
    the class, so the hook sees every validating construction; ``_freeze``
    builds the object without ``__init__`` and is not counted.
    """
    checked = []
    check = CostMatrix._check

    def counting_check(self):
        checked.append(self)
        check(self)

    monkeypatch.setattr(CostMatrix, "_check", counting_check)
    return checked
