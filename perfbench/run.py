#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload <tall_skinny|square|service> \
        --seed <n> --seconds <s> --trace <0|1> [--corrupt 1]

Run from the root of a checkout. Builds the camult library and the
perfbench driver from source into .bench_build/, runs the driver, and
prints as the last line of stdout one JSON object with the keys
correct, attempted, failed and metrics. Exits 1 (without a result line)
when the build or the run breaks, and 1 (after the result line) when an
output was wrong or an operation failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# Each run's set-up is measured in several processes (the main one
# included), so process-wide lazy initialisation counts every time: at
# least SETUP_MIN, and up to SETUP_MAX while SETUP_BUDGET_S lasts. The
# median is reported.
SETUP_MIN = 3
SETUP_MAX = 9
SETUP_BUDGET_S = 3.0
# Every driver process of one run must end within this many seconds.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the run's lines.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def git_rev():
    # The ceiling keeps git from searching the checkout's parents for a
    # repository when the checkout itself is not one.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env():
    env = dict(os.environ)
    # Fault-free, auto-dispatched kernel, built-in GEMM blocking: a local
    # tuning cache (by default under $HOME) must not change the numbers.
    for var in ("CAMULT_FAULT_SEED", "CAMULT_KERNEL"):
        env.pop(var, None)
    env["CAMULT_TUNE_FILE"] = os.path.join(BUILD, "no-tuning-file")
    return env


def run_driver(args, extra, echo, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-rev", git_rev()] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {proc.returncode})")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"driver ended without a result (exit {proc.returncode})")
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["tall_skinny", "square", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--corrupt", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    setups = []
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    while not args.trace and (
            len(setups) < SETUP_MIN - 1 or
            (len(setups) < SETUP_MAX - 1 and
             time.monotonic() - start < SETUP_BUDGET_S)):
        code, res = run_driver(args, ["--setup-only", "1"], echo=False,
                               deadline=deadline)
        if code != 0:
            fail("set-up run failed")
        setups.append(res["metrics"]["setup_s"]["value"])
    code, result = run_driver(args, ["--corrupt", str(args.corrupt)],
                              echo=True, deadline=deadline)
    if "setup_s" in result["metrics"]:
        setups.append(result["metrics"]["setup_s"]["value"])
        print("setup_s samples: " + ", ".join(f"{s:.6f}" for s in setups))
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
