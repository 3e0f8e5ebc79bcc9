"""The random-cost sweep of ``permsort bench``, in blocks over the CPUs.

Trial i is trial i % trials at size kmin + i // trials. In each block of
``BLOCK`` trials, worker w of W takes every W-th from the w-th on. Worker 0
is this process; each other is a child, forked once per sweep, that writes
one marshalled list per block down a pipe and waits while the pipe is full.
So memory holds about one block, whatever the number of trials.
"""
from __future__ import annotations

import marshal
import os
import random
from itertools import islice

from .costs import _freeze, _fresh
from .mld import mld_cost
from .optimize import all_pairs_optimize
from .permutation import Cycle

BLOCK = 4096


def _trial_pairs(kmin: int, trials: int, share: range, seed: int) -> list[tuple[float, float]]:
    """The (raw, optimized) ``mld_cost`` of the cycle (1 .. k) for each trial
    index in ``share``; each trial's table comes from its own generator."""
    pairs = []
    for i in share:
        k, t = kmin + i // trials, i % trials
        rng = random.Random(seed * 1_000_003 + k * 10_007 + t)
        costs = _fresh(k, 0)
        for a in range(k):
            for b in range(a + 1, k):
                costs[a][b] = costs[b][a] = rng.random()
        # values in [0, 1) need no check
        table = _freeze(costs, "raw")
        cyc = Cycle(tuple(range(1, k + 1)))
        pairs.append((mld_cost(cyc, table.assume_optimized()),
                      mld_cost(cyc, all_pairs_optimize(table))))
    return pairs


def _child(rfd: int, wfd: int, kmin: int, trials: int, seed: int, total: int, workers: int, w: int):
    """Write worker w's list of each block down the pipe, its size first,
    then leave by ``os._exit``: it flushes none of the stdio buffers
    inherited from the parent, so nothing is printed twice."""
    try:
        os.close(rfd)
        with open(wfd, "wb") as pipe:
            for start in range(0, total, BLOCK):
                share = range(start + w, min(start + BLOCK, total), workers)
                data = marshal.dumps(_trial_pairs(kmin, trials, share, seed))
                pipe.write(len(data).to_bytes(8, "little") + data)
                pipe.flush()
        os._exit(0)
    finally:    # only when something above raised
        os._exit(1)


def _pairs(pipes: list, kmin: int, trials: int, seed: int, total: int):
    """Every trial's pair in index order, a block at a time. A share is read
    from its child if that sent a list of the right length, else computed
    here: worker 0's, and a failed child's, whose error then shows here."""
    workers = len(pipes)
    for start in range(0, total, BLOCK):
        end = min(start + BLOCK, total)
        block = [None] * (end - start)
        for w, pipe in enumerate(pipes):
            share = range(start + w, end, workers)
            try:
                size = int.from_bytes(pipe.read(8), "little") if pipe else 0
                pairs = marshal.loads(pipe.read(size)) if pipe else []
            except EOFError:    # a child that died before or in its list
                pairs = []
            if len(pairs) != len(share):
                pairs = _trial_pairs(kmin, trials, share, seed)
            block[w::workers] = pairs
        yield from block


def bench_rows(kmin: int, kmax: int, trials: int, seed: int) -> list[tuple[int, int, float, float]]:
    """Mean decomposition cost of the cycle (1 .. k) under random uniform
    costs, raw and optimized, for each k in kmin .. kmax; one worker per CPU
    in this process's affinity set (one without ``os.fork`` or
    ``os.sched_getaffinity``). Pairs are summed in (k, trial) order, so the
    rows are bit for bit the same for any number of workers or block size.
    Every child is reaped on return."""
    total = max(0, kmax - kmin + 1) * trials
    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    workers = max(1, min(len(os.sched_getaffinity(0)) if forks else 1, total))
    children = []    # (pid, read end of its pipe) of workers 1 .. W - 1
    rows = []
    try:
        for w in range(1, workers):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(rfd, wfd, kmin, trials, seed, total, workers, w)
            os.close(wfd)
            children.append((pid, open(rfd, "rb")))
        pairs = _pairs([None] + [pipe for _, pipe in children], kmin, trials, seed, total)
        for k in range(kmin, kmax + 1):
            raw_sum = opt_sum = 0.0
            for raw, opt in islice(pairs, trials):
                raw_sum += raw
                opt_sum += opt
            rows.append((k, trials, raw_sum / trials, opt_sum / trials))
    except BaseException:
        import signal    # about 1 ms, so only on this path
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:    # a child that sent its last list has exited or is exiting
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return rows
