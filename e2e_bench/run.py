#!/usr/bin/env python3
"""Builds bench_e2e from this checkout, then runs it with the given arguments.

    python3 e2e_bench/run.py --workload audit-cold --seed 1 --seconds 25 --trace 0

The build lives in .bench_build/e2e_bench under the checkout root (CMake,
RelWithDebInfo like the repository's default build); later runs rebuild only
what changed. Build output goes to stderr, so the last line of stdout stays
the benchmark's JSON result. Without the repository's sources the build
fails, and the script exits non-zero without printing a result.
"""
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "e2e_bench")


def check(cmd):
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("run.py: build step failed: " + " ".join(cmd))


def build():
    os.makedirs(BUILD, exist_ok=True)
    # Concurrent runs in one checkout build once, one after the other.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            check(["cmake", "-S", os.path.join(ROOT, "e2e_bench"), "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        check(["cmake", "--build", BUILD, "--target", "bench_e2e",
               "-j", str(min(4, os.cpu_count() or 1))])


def main():
    build()
    binary = os.path.join(BUILD, "bench_e2e")
    # Run from the checkout root: the service workload's socket paths are
    # relative to it.
    os.chdir(ROOT)
    os.execv(binary, [binary, "--root", ROOT] + sys.argv[1:])


if __name__ == "__main__":
    main()
