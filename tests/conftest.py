import pytest

from permsort import ShortestSwaps


@pytest.fixture
def engines_built(monkeypatch):
    """Every ShortestSwaps built during the test, i.e. every Floyd-Warshall run.

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
