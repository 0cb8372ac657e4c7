#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of runs of one build.

Usage, from the repository root:
    python3 perfbench/steady.py [--runs 10] [--workloads clip_report,live_saturated]

For every workload it makes `runs` pairs of runs, one run of set A and one
of set B per pair (which goes first alternates), each run with its own
--seed. For each end-to-end metric of BENCHMARK.json it prints both sets'
medians and quartiles, each set's spread (quartile distance over median)
and how far set B's median moved from set A's in the metric's worse
direction, against the metric's bound. It also compares the share of
failed operations between the sets, which must be identical. The bounds
in BENCHMARK.json are set from this output: every spread, setup_s's too,
should sit below a third of its bound, and a spread above the bound fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr)
        sys.exit(f"steady: {' '.join(cmd)} exited with {res.returncode}")
    for line in lines[:-1]:
        if line.startswith(("host:", "build:")):
            print("   ", line)
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(res.stderr)
        sys.exit(f"steady: {workload} seed {seed} failed its output checks")
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--verbose", action="store_true", help="also print every run's value")
    args = parser.parse_args()

    all_ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for name in order:
                seed = args.first_seed + 2 * i + (0 if name == "A" else 1)
                sets[name].append(run_once(bench["command"], workload, seed, args.seconds))
            print(f"{workload}: pair {i + 1}/{args.runs} done", flush=True)

        print(f"\n== {workload} ({args.runs} runs per set, {args.seconds} s each)")
        print(f"{'metric':22} {'bound':>6} {'A median [q1, q3]':>32} {'spread':>7}"
              f" {'B median [q1, q3]':>32} {'spread':>7} {'B worse':>8}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary([r["metrics"][name]["value"] for r in sets["A"]])
            b = summary([r["metrics"][name]["value"] for r in sets["B"]])
            worse = (b[1] - a[1]) / a[1] if metric["better"] == "lower" else (a[1] - b[1]) / a[1]
            spread_ok = max(a[3], b[3]) <= bound
            verdict = "ok" if spread_ok and worse <= bound else "FAIL"
            if verdict == "ok" and max(a[3], b[3]) > bound / 3:
                verdict = "ok (spread above a third of the bound)"
            all_ok = all_ok and verdict != "FAIL"
            print(f"{name:22} {bound:6.3f} {a[1]:12.4f} [{a[0]:.4f}, {a[2]:.4f}]"
                  f" {a[3]:7.4f} {b[1]:12.4f} [{b[0]:.4f}, {b[2]:.4f}] {b[3]:7.4f}"
                  f" {worse:8.4f}  {verdict}")
            if args.verbose:
                for key in ("A", "B"):
                    values = sorted(r["metrics"][name]["value"] for r in sets[key])
                    print(f"{'':22} {key}: " + " ".join(f"{v:.4g}" for v in values))
        shares = {k: {r["failed"] / r["attempted"] for r in v} for k, v in sets.items()}
        same_share = len(shares["A"] | shares["B"]) == 1
        all_ok = all_ok and same_share
        print(f"failed share: {sorted(shares['A'] | shares['B'])}"
              f" {'identical' if same_share else 'DIFFERS'} across runs")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
