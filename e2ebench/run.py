#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Usage (from the root of a source checkout):

    python3 e2ebench/run.py --workload checkin_replay --seed 1 --seconds 10 --trace 0

Every argument is passed through to the benchmark binary (see README.md).
The build lives in .bench_build/e2ebench and is incremental, so only the
first run in a checkout compiles. Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build", "e2ebench")
    work_dir = os.path.join(root, ".bench_build", "work")
    jobs = str(max(1, os.cpu_count() or 1))

    configure = ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    configured = any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("e2ebench: configure failed", file=sys.stderr)
            return 1
    build = ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs]
    if subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(build_dir, "e2ebench")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, *sys.argv[1:], "--work-dir", work_dir]
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main())
