#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload reproduce|real-fine|real-apps \
        --seed N --seconds S --trace 0|1 [--self-test-corrupt]

Run it from the root of a checkout.  It builds perfbench/bench.exe with
dune, then:

- with --trace 0, runs the measurement and prints the end-to-end metrics,
  among them setup_s: the median, over SETUP_RUNS starts of the benchmark
  with --setup-only, of the time from process start to its "ready" line.
  Half the starts run before the measurement and half after, so one
  stretch of machine noise cannot move them all;
- with --trace 1, runs the measurement with tracing and prints the
  per-layer metrics.

The benchmark's own lines are passed through.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; its metric names and units are checked against BENCHMARK.json.
Any failure to build or run exits non-zero without printing a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["reproduce", "real-fine", "real-apps"]
SETUP_RUNS = 10
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from the root of a full checkout" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with exit code %d" % done.returncode)


def bench_args(args):
    return [EXE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]


def setup_seconds(args, deadline):
    """One set-up: process start up to the benchmark's "ready" line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(bench_args(args) + ["--setup-only"], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("set-up run timed out")
    if line.strip() != "ready" or proc.returncode != 0:
        fail("set-up run failed (exit code %s)" % proc.returncode)
    return elapsed


def measure(args, deadline):
    cmd = bench_args(args)
    if args.self_test_corrupt:
        cmd.append("--self-test-corrupt")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("measurement timed out")
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")


def check_metrics(result, expected):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        fail("metrics differ from BENCHMARK.json: got %s, want %s"
             % (sorted(got.items()), sorted(want.items())))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test-corrupt", action="store_true",
                   help="damage one output per pass; failed must be > 0")
    args = p.parse_args()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    half = SETUP_RUNS // 2 if args.trace == 0 else 0
    setups = [setup_seconds(args, deadline) for _ in range(half)]
    result = measure(args, deadline)
    setups += [setup_seconds(args, deadline) for _ in range(half)]
    if args.trace == 0:
        setup_s = statistics.median(setups)
        result["metrics"] = dict(
            [("setup_s", {"value": setup_s, "unit": "s"})]
            + list(result["metrics"].items()))
        print("  %-28s %14.6g s  (median of %d set-ups)"
              % ("setup_s", setup_s, SETUP_RUNS))
        check_metrics(result, spec["end_to_end"])
    else:
        check_metrics(result, spec["per_layer"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
