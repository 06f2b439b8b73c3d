#!/usr/bin/env python3
# Copyright 2026 The dpcube Authors.
"""dpcube benchmark entry point.

    python3 perfbench/run.py --workload release|serve_hit \
        --seed N --seconds S --trace 0|1

Run from the root of a dpcube checkout. Builds the library, the `dpcube`
CLI and the benchmark harness from source (Release, into .bench_build),
runs one workload, and prints the harness's result: a fingerprint line,
then one JSON object as the last line of standard output. Build output
and diagnostics go to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("release", "serve_hit")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_commit():
    """git HEAD when available, else a digest of the source tree."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no dpcube source tree in " + ROOT)
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "dpcube_perfbench", "dpcube_cli"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    work_dir = os.path.join(
        OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    os.makedirs(work_dir, exist_ok=True)
    harness = os.path.join(BUILD_DIR, "dpcube_perfbench")
    command = [harness, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--dpcube", os.path.join(BUILD_DIR, "dpcube", "dpcube"),
               "--commit", source_commit()]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=170)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(result.stdout)
        fail("harness exited with %d and no result" % result.returncode)
    with open(os.path.join(work_dir, "result.json"), "w") as handle:
        handle.write(result.stdout)
    sys.stdout.write(result.stdout)


if __name__ == "__main__":
    main()
