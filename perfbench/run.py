#!/usr/bin/env python3
"""Builds and runs the quml end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload qft20_inproc --seed 1 --seconds 15 --trace 0

Run from the root of a quml source tree.  The first call configures and
builds the library and perfbench_driver into .bench_build/ (Release); later
calls rebuild incrementally.  Every call runs the benchmark's own arithmetic
tests, then perfbench_driver, whose last stdout line is the one-line JSON
result.  Build output goes to stderr.  Exit status: perfbench_driver's
(0 = all output checks passed), or 2 when the tree cannot be built or the
tests fail.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("wire_small", "qft20_inproc", "maxcut_portability")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def git_commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 over the library sources and the benchmark, path and bytes."""
    digest = hashlib.sha256()
    paths = ["CMakeLists.txt"]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, name) for name in sorted(filenames))
    for path in paths:
        digest.update(path.encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        return fail("--seed must be non-negative")

    if not (os.path.isfile("CMakeLists.txt") and os.path.isfile("src/CMakeLists.txt")):
        return fail("run from the root of a quml source tree (no CMakeLists.txt / src/ here)")

    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return fail("cmake configure failed")
    if not run_quiet(["cmake", "--build", BUILD_DIR, "-j", "4"]):
        return fail("build failed")
    if not run_quiet([os.path.join(BUILD_DIR, "perfbench_tests")]):
        return fail("the benchmark's arithmetic tests failed")

    out_dir = os.path.join(BUILD_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    driver = [os.path.join(BUILD_DIR, "perfbench_driver"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace,
              "--out-dir", out_dir, "--commit", git_commit(),
              "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(driver).returncode


if __name__ == "__main__":
    sys.exit(main())
