"""The random-cost sweep of ``permsort bench``, dealt over the CPUs.

Trial i is trial i % trials at size kmin + i // trials, and worker i % W of
W computes it. Worker 0 is this process; each other is a child, forked once
per sweep, that writes each pair down its pipe as one ``RECORD`` as soon as
it has it. A record is far below ``PIPE_BUF``, so no write is torn, and a
child waits while its pipe is full, so the pipe bounds memory whatever the
number of trials.
"""
from __future__ import annotations

import os
import random
import struct
from itertools import islice

from .costs import _freeze, _fresh
from .mld import mld_cost
from .optimize import all_pairs_optimize
from .permutation import Cycle

RECORD = struct.Struct("dd")    # one trial's (raw, optimized) pair


def _trial_pair(kmin: int, trials: int, i: int, seed: int) -> tuple[float, float]:
    """The (raw, optimized) ``mld_cost`` of the cycle (1 .. k) for trial
    index i; each trial's table comes from its own generator."""
    k, t = kmin + i // trials, i % trials
    rng = random.Random(seed * 1_000_003 + k * 10_007 + t)
    costs = _fresh(k, 0)
    for a in range(k):
        for b in range(a + 1, k):
            costs[a][b] = costs[b][a] = rng.random()
    # values in [0, 1) need no check
    table = _freeze(costs, "raw")
    cyc = Cycle(tuple(range(1, k + 1)))
    return (mld_cost(cyc, table.assume_optimized()),
            mld_cost(cyc, all_pairs_optimize(table)))


def _child(rfd: int, wfd: int, kmin: int, trials: int, seed: int, total: int, workers: int, w: int):
    """Write the record of each of worker w's trials unbuffered, so the
    parent never waits on a pair the child already has; then leave by
    ``os._exit``: it flushes none of the stdio buffers inherited from the
    parent, so nothing is printed twice."""
    try:
        os.close(rfd)
        for i in range(w, total, workers):
            os.write(wfd, RECORD.pack(*_trial_pair(kmin, trials, i, seed)))
        os._exit(0)
    finally:    # only when something above raised
        os._exit(1)


def _pairs(pipes: list, kmin: int, trials: int, seed: int, total: int):
    """Every trial's pair in index order. Trial i is read from the pipe of
    worker i % W, else computed here: worker 0's, and every trial of a child
    from the first record it did not send, whose error then shows here."""
    workers = len(pipes)
    for i in range(total):
        w = i % workers
        record = pipes[w].read(RECORD.size) if pipes[w] else b""
        if len(record) == RECORD.size:
            yield RECORD.unpack(record)
        else:    # a short read is the end of a child that died
            pipes[w] = None
            yield _trial_pair(kmin, trials, i, seed)


def bench_rows(kmin: int, kmax: int, trials: int, seed: int) -> list[tuple[int, int, float, float]]:
    """Mean decomposition cost of the cycle (1 .. k) under random uniform
    costs, raw and optimized, for each k in kmin .. kmax; one worker per CPU
    in this process's affinity set (one without ``os.fork`` or
    ``os.sched_getaffinity``). Pairs are summed in (k, trial) order, so the
    rows are bit for bit the same for any number of workers. Every child is
    reaped on return."""
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
    finally:    # a child that sent its last record has exited or is exiting
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    return rows
