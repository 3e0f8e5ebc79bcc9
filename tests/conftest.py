import pytest

from permsort import CostMatrix, ShortestSwaps


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


@pytest.fixture
def tables_checked(monkeypatch):
    """Every CostMatrix whose entries were all checked during the test.

    The dataclass ``__init__`` looks ``__post_init__`` up on the class, so
    the hook sees every validating construction; ``_freeze`` skips it.
    """
    checked = []
    post_init = CostMatrix.__post_init__

    def counting_post_init(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(CostMatrix, "__post_init__", counting_post_init)
    return checked
