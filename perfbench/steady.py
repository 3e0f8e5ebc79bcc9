"""Steadiness check: run each workload repeatedly and compare spreads to bounds.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                [--seconds S]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1),
one run at a time, from the checkout root. For every end-to-end metric in
BENCHMARK.json it prints the median, the quartiles, the spread
(Q3 - Q1) / median and that spread as a share of the metric's bound, plus the
share of failed commands per workload. Exits 1 when a spread exceeds its
bound or a run reports an incorrect output.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to measure a spread")

    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results.append(result)
        failed = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok &= correct
        print(f"{workload}: {args.runs} runs, failed share {sorted(failed)}, "
              f"correct {correct}, attempted {[r['attempted'] for r in results]}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med, q1, q3, share = spread(values)
            of_bound = share / metric["bound"]
            wide = share > metric["bound"]
            ok &= not wide
            print(f"  {metric['name']:16s} median {med:12.6g} {metric['unit']:5s} "
                  f"Q1 {q1:12.6g} Q3 {q3:12.6g} spread {share:7.4f} "
                  f"bound {metric['bound']:.2f} ({of_bound:5.2f} of it){'  WIDE' if wide else ''}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
