"""Layered benchmark of the permsort command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ./src.
One run:

1. runs whole rounds of ``permsort`` commands, one child process at a
   time: first MEASURED_ROUNDS[workload] rounds, then more whole rounds
   until S seconds have passed. Each measured round starts with a set-up,
   SETUPS_PER_ROUND[workload] times: write one round of the workload's
   inputs (gen.py) into .perfbench_work/ and compute their reference
   answers (checks.py ``expect_*``);
2. timing metrics, ``setup_s`` included, use the fastest of the measured
   samples, so a faster or slower program is measured on the same number
   of repeats: on a shared machine the slower repeats mostly measure other
   tenants, and the best of a fixed number of repeats drifts less between
   runs. The later rounds are checked and counted in ``attempted`` like
   the others;
3. checks every distinct output against the reference answers, then prints
   a report and, as its last line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` each command is ``python -m permsort ...`` and the
metrics are the end-to-end ones. With ``--trace 1`` each command runs
through traced_main.py, which records spans around the package's public
functions, and the metrics are per-layer: the mean per command over the run.

A command fails when it exits nonzero or its output fails a check; a wrong
output from a command that exited 0 also makes ``correct`` false.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import gen  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
COMMAND_TIMEOUT_S = 20   # the slowest command takes about 1.5 s

# rounds whose wall times the timing metrics use: about the fewest that
# fit in a 20 s timed phase on a 2-vCPU machine
MEASURED_ROUNDS = {
    "decompose-cli": 6,
    "long-cycle": 8,
    "paper-sweep": 10,
    "oracle": 8,
}
# set-ups at the start of each measured round; decompose-cli's takes only
# about 0.07 s, so it sets up more often to get as many samples per second
SETUPS_PER_ROUND = {
    "decompose-cli": 4,
    "long-cycle": 1,
    "paper-sweep": 1,
    "oracle": 1,
}

# instances solved by one command; paper-sweep solves one table per
# (k, trial), with and without optimizing
INSTANCES_PER_COMMAND = {
    "decompose-cli": 1,
    "long-cycle": 1,
    "paper-sweep": (gen.SWEEP_KMAX - gen.SWEEP_KMIN + 1) * gen.SWEEP_TRIALS,
    "oracle": 1,
}

# per-layer metric -> (traced function, what to take from its spans)
LAYER_METRICS = {
    "cli.self_s": ("cli.main", "self"),
    "costs.parse_cost_input_s": ("costs.parse_cost_input", "total"),
    "costs.from_pairs_calls": ("costs.from_pairs", "calls"),
    "costs.from_pairs_s": ("costs.from_pairs", "total"),
    "optimize.optimize_costs_s": ("optimize.optimize_costs", "total"),
    "optimize.all_pairs_optimize_s": ("optimize.all_pairs_optimize", "total"),
    "optimize.bellman_ford_calls": ("optimize.bellman_ford", "calls"),
    "optimize.bellman_ford_s": ("optimize.bellman_ford", "total"),
    "optimize.expand_decomposition_s": ("optimize.expand_decomposition", "total"),
    "mld.min_cost_mld_calls": ("mld.min_cost_mld", "calls"),
    "mld.min_cost_mld_s": ("mld.min_cost_mld", "total"),
    "mld.std_decomposition_s": ("mld.std_decomposition", "total"),
    "multicycle.decompose_self_s": ("multicycle.decompose", "self"),
    "multicycle.permutation_lower_bound_s": ("multicycle.permutation_lower_bound", "total"),
    "multicycle.merge_cycles_s": ("multicycle.merge_cycles", "total"),
    "permutation.validate_decomposition_calls": ("permutation.validate_decomposition", "calls"),
    "permutation.validate_decomposition_s": ("permutation.validate_decomposition", "total"),
    "oracle.mcd_exact_s": ("oracle.mcd_exact", "total"),
    "oracle.cayley_graph_s": ("oracle.cayley_graph", "total"),
}


def run_command(argv: list[str], cwd: Path, env: dict) -> tuple[float, int, float, str]:
    """Run one child to completion: (wall s, exit code, peak RSS MiB, stdout).

    A child still running after COMMAND_TIMEOUT_S is killed and the run
    stops with TimeoutError, so a hanging program cannot hold the run.
    """
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, lambda: (killed.set(), proc.kill()))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed.is_set():
        raise TimeoutError(f"killed after {COMMAND_TIMEOUT_S} s: {' '.join(argv)}")
    if proc.returncode != 0:
        sys.stderr.write(f"exit {proc.returncode}: {' '.join(argv[-6:])}\n"
                         + err_path.read_text()[-2000:])
    return wall, proc.returncode, usage.ru_maxrss / 1024, out_path.read_text()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"    # an exported tree; git would search parent directories
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def summarize_spans(path: Path) -> tuple[float, dict[str, list[float]], int]:
    """(import s, {function: [calls, total s, self s]}, validated swaps) of one process.

    Self time is a span's duration minus that of its direct children.
    """
    data = json.loads(path.read_text())
    spans = data["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_fn: dict[str, list[float]] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        row = per_fn.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[idx]
    # a layer's total counts only its outermost spans, so nesting is not doubled
    layer_total: dict[str, float] = {}
    for name, start, end, parent in spans:
        layer = name.split(".")[0]
        p = parent
        while p >= 0 and spans[p][0].split(".")[0] != layer:
            p = spans[p][3]
        if p < 0:
            layer_total[layer] = layer_total.get(layer, 0.0) + end - start
    for layer, total in layer_total.items():
        per_fn[f"{layer}.*"] = [0, total, sum(
            row[2] for fn, row in per_fn.items() if fn.startswith(layer + ".") and not fn.endswith("*"))]
    return data["import_s"], per_fn, data["validated_swaps"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "permsort" / "cli.py").is_file():
        print(f"error: no permsort sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, work)
    except TimeoutError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans_path = work / "spans.json"
    if args.trace:
        prefix = [sys.executable, str(BENCH_DIR / "traced_main.py"), str(spans_path)]
    else:
        prefix = [sys.executable, "-m", "permsort"]

    expect, check = checks.CHECKS[args.workload]
    measured = MEASURED_ROUNDS[args.workload]
    setup_times: list[float] = []
    best: dict[int, float] = {}    # fastest measured wall time per command
    outputs: list[tuple[int, int, str]] = []   # (instance, exit code, stdout)
    peak_rss = 0.0
    layer_sums: dict[str, float] = {}
    layer_rows: dict[str, list[float]] = {}
    rounds = 0
    started = time.perf_counter()
    while rounds < measured or time.perf_counter() - started < args.seconds:
        # each measured round sets up afresh, so the set-up samples are
        # spread over the run as the command samples are
        if rounds < measured:
            for _ in range(SETUPS_PER_ROUND[args.workload]):
                t0 = time.perf_counter()
                instances = gen.generate(args.workload, args.seed, work)
                expected = [expect(inst["check"]) for inst in instances]
                setup_times.append(time.perf_counter() - t0)
        for idx, inst in enumerate(instances):
            spans_path.unlink(missing_ok=True)
            wall, code, rss, out = run_command(prefix + inst["args"], work, env)
            if rounds < measured:
                best[idx] = min(best.get(idx, float("inf")), wall)
                peak_rss = max(peak_rss, rss)
            outputs.append((idx, code, out))
            if args.trace and code == 0:
                import_s, per_fn, validated = summarize_spans(spans_path)
                for fn, row in per_fn.items():
                    acc = layer_rows.setdefault(fn, [0, 0.0, 0.0])
                    for i in range(3):
                        acc[i] += row[i]
                layer_sums["cli.import_s"] = layer_sums.get("cli.import_s", 0.0) + import_s
                layer_sums["permutation.validated_swaps"] = (
                    layer_sums.get("permutation.validated_swaps", 0) + validated)
                layer_sums["optimize.expansion_swaps"] = (
                    layer_sums.get("optimize.expansion_swaps", 0) + checks.expansion_swaps(out))
        rounds += 1
    elapsed = time.perf_counter() - started

    verdicts: dict[tuple[int, str], list[str]] = {}
    failed = 0
    correct = True
    for idx, code, out in outputs:
        if code != 0:
            failed += 1
            continue
        key = (idx, out)
        if key not in verdicts:
            verdicts[key] = check(instances[idx]["check"], expected[idx], out)
            for problem in verdicts[key]:
                sys.stderr.write(f"wrong output, {args.workload} instance {idx}: {problem}\n")
        if verdicts[key]:
            failed += 1
            correct = False

    attempted = len(outputs)
    per_round = len(instances) * INSTANCES_PER_COMMAND[args.workload]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed, "rounds": rounds,
        "measured_rounds": measured, "commands_per_round": len(instances),
        "timed_s": round(elapsed, 3), "setup_runs_s": [round(t, 4) for t in setup_times],
        "git_sha": git_sha(), "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    print("# run " + json.dumps(report))

    if args.trace:
        ok_commands = attempted - sum(1 for _, code, _ in outputs if code != 0)
        per = max(ok_commands, 1)
        print(f"# layers, mean per command over {ok_commands} commands: "
              "calls, total s, self s")
        for fn in sorted(layer_rows):
            calls, total, self_s = (x / per for x in layer_rows[fn])
            shown = "" if fn.endswith("*") else f"{calls:.2f}"
            print(f"#   {fn:40s} {shown:>10s} {total:10.5f} {self_s:10.5f}")
        metrics = {"cli.import_s": _metric(layer_sums.get("cli.import_s", 0.0) / per, "s")}
        for name, (fn, what) in LAYER_METRICS.items():
            calls, total, self_s = layer_rows.get(fn, [0, 0.0, 0.0])
            value = {"calls": calls, "total": total, "self": self_s}[what]
            metrics[name] = _metric(value / per, "count" if what == "calls" else "s")
        for name in ("permutation.validated_swaps", "optimize.expansion_swaps"):
            metrics[name] = _metric(layer_sums.get(name, 0) / per, "count")
        metrics["trace.command_p50_s"] = _metric(statistics.median(best.values()), "s")
    else:
        metrics = {
            "setup_s": _metric(min(setup_times), "s"),
            "command_p50_s": _metric(statistics.median(best.values()), "s"),
            "instances_per_s": _metric(per_round / sum(best.values()), "1/s"),
            "peak_rss_mib": _metric(peak_rss, "MiB"),
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


if __name__ == "__main__":
    sys.exit(main())
