#!/usr/bin/env python3
"""Builds and runs one workload of the steady benchmark.

Usage, from the repository root:
    python3 perfbench/run.py --workload clip_report --seed 1 --seconds 10 --trace 0

Builds the slj library and perfbench/slj_perfbench in Release (into
$CARGO_TARGET_DIR, default .bench_build, relative to the repository root),
prints a host fingerprint, then runs the workload. The last line of standard
output is the workload's JSON result. Build output goes to standard error.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("clip_report", "live_saturated")
RUN_TIMEOUT_S = 170


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_info():
    model, avx2 = "unknown", False
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags":
                    avx2 = avx2 or "avx2" in value.split()
    except OSError:
        pass
    return model, avx2


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir, avx2, jobs):
    env = dict(os.environ)
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # keep compiler temporaries inside the checkout
    configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release",
                 "-DSLJ_SIMD=" + ("AVX2" if avx2 else "AUTO")]
    for cmd in (configure, ["cmake", "--build", out_dir, "-j", str(jobs)]):
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if res.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "slj_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    threads = nproc()
    model, avx2 = cpu_info()
    binary = build(build_dir(), avx2, threads)
    sha = git_sha()
    print(f"host: cpu {model}; nproc {threads}; avx2 {'yes' if avx2 else 'no'}", flush=True)

    env = dict(os.environ)
    env["SLJ_GIT_SHA"] = sha
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--threads", str(threads)]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if code != 0:
        sys.exit(f"perfbench: {args.workload} exited with code {code}")


if __name__ == "__main__":
    main()
