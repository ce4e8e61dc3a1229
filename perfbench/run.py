#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (which
adds the repository's own library target) with CMake into
$CARGO_TARGET_DIR/perfbench-<hash>, or .bench_build/perfbench-<hash> when the
variable is unset; <hash> names the source tree, so checkouts that share a
build root never build each other's code. It then runs one harness process
and passes its standard output through: the last line is the result JSON.
Traces and per-run checkpoint directories go under the same build directory.
It exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(src_dir, build_dir):
    """Configures and builds incrementally; returns the harness path.

    Configure runs every time: it is cheap on a configured tree, and it
    retries a tree whose earlier configure failed.
    """
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps = [["cmake", "-S", src_dir, "-B", build_dir,
                  "-DCMAKE_BUILD_TYPE=Release"] + generator,
                 ["cmake", "--build", build_dir, "-j", "4"]]
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout)
                sys.stderr.write("perfbench: build failed: %s\n"
                                 % " ".join(cmd))
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src_dir = os.path.dirname(os.path.realpath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tag = hashlib.sha1(src_dir.encode()).hexdigest()[:12]
    build_dir = os.path.join(os.path.abspath(target), "perfbench-" + tag)
    harness = build(src_dir, build_dir)
    if harness is None:
        return 1

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir, "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: harness exited %d without a result\n"
                         % proc.returncode)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
