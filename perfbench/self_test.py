#!/usr/bin/env python3
"""The benchmark's own test: a corrupted output must fail the run.

    python3 perfbench/self_test.py

Runs the square workload twice with the same seed: once with --corrupt 1,
which flips the sign of one element of one timed CAQR output before it is
checked, and once clean. The corrupted run must exit nonzero and report
failed >= 1 and correct false; the clean run must exit 0 with failed == 0.
Exits 0 when both hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(corrupt):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           "square", "--seed", "7", "--seconds", "3", "--trace", "0",
           "--corrupt", str(corrupt)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.splitlines()
    if not lines:
        return proc.returncode, None
    return proc.returncode, json.loads(lines[-1])


def main():
    ok = True
    code, res = run(1)
    if code == 0 or res is None or res["failed"] < 1 or res["correct"]:
        print(f"FAIL: corrupted run: exit {code}, result {res}")
        ok = False
    else:
        print(f"ok: corrupted run fails (exit {code}, failed "
              f"{res['failed']}/{res['attempted']})")
    code, res = run(0)
    if code != 0 or res is None or res["failed"] != 0 or not res["correct"]:
        print(f"FAIL: clean run: exit {code}, result {res}")
        ok = False
    else:
        print(f"ok: clean run passes (attempted {res['attempted']})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
