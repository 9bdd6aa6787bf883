#!/usr/bin/env python3
"""Steadiness check: runs workloads several times and prints, per metric,
the median and the quartile spread (Q3 - Q1) / median over the runs.

Usage (from the root of a source checkout):

    python3 e2ebench/steady.py --runs 10 --seed-base 100 --seconds 10 \\
        [--workloads checkin_replay,routine_replay]

Each run uses its own seed (seed-base, seed-base + 1, ...). The bounds in
BENCHMARK.json rest on these figures: every end-to-end spread should stay
below a third of its bound (setup_s excepted, which only needs a steady
median). Exits non-zero when a run fails or reports correct = false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, workload, seed, seconds):
    command = [sys.executable, os.path.join(root, "e2ebench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=root, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {completed.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        shares = set()
        for i in range(args.runs):
            result = run_once(root, workload, args.seed_base + i, args.seconds)
            ok = ok and result["correct"]
            print(f"  seed {args.seed_base + i}: " + " ".join(
                f"{name}={metric['value']:.5g}" for name, metric in sorted(result["metrics"].items())))
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload}: {args.runs} runs, correct={ok}, failed shares {sorted(shares)}")
        print(f"  {'metric':32} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
        for name, samples in sorted(values.items()):
            q1, q2, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
            med = statistics.median(samples)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            print(f"  {name:32} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
