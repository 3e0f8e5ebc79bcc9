import os

import pytest

from permsort import CostMatrix, ShortestSwaps


@pytest.fixture(autouse=True)
def exit_only_in_forked_children(monkeypatch):
    """``os._exit`` raises in the pytest process itself, so code that would
    end the run there, and pytest's exit code with it, fails its test
    instead. A forked child keeps the real ``os._exit``; one that returns
    into pytest leaves by it at its test's teardown, so it never runs the
    tests after its own."""
    pytest_pid = os.getpid()
    real_exit = os._exit

    def guarded_exit(code):
        if os.getpid() == pytest_pid:
            raise RuntimeError(f"os._exit({code}) called in the pytest process")
        real_exit(code)

    monkeypatch.setattr(os, "_exit", guarded_exit)
    yield
    if os.getpid() != pytest_pid:
        real_exit(1)


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
def engine_builders(monkeypatch, tmp_path):
    """A function that returns the pid of the process behind each
    ShortestSwaps built since its last call, forked children included: each
    construction appends its pid to a file, which the function reads and
    empties."""
    log = tmp_path / "engine-builders"
    log.write_text("")
    init = ShortestSwaps.__init__

    def logging_init(self, *args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        init(self, *args, **kwargs)

    def drain():
        pids = [int(pid) for pid in log.read_text().split()]
        log.write_text("")
        return pids

    monkeypatch.setattr(ShortestSwaps, "__init__", logging_init)
    return drain


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
