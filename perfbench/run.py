#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark (see perfbench/NOTES.md).

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (and the library sources
under src/) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later calls rebuild incrementally. The benchmark's own output passes
through unchanged; its last line is the JSON result.
"""

import argparse
import ctypes
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ride_hailing", "fleet_telemetry", "durable_ingest")
# Every run must end well inside three minutes, build excluded.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
ADDR_NO_RANDOMIZE = 0x0040000  # from <linux/personality.h>


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step; on failure prints its output tail and exits 1."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: build step timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the library sources (src/) are missing; "
                 "run from the root of a full checkout")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
               "perfbench_selftest"], BUILD_TIMEOUT_S)


def fixed_layout():
    """Turns off address-space randomization for the calling process.

    Runs in the child between fork and exec. With a randomized layout the
    same binary and seed measure bimodally (about 10 k vs 14 k puts/s on
    durable_ingest) from one process to the next; a fixed layout narrows
    that spread. Failure leaves the layout randomized.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def run_binary(cmd):
    """Runs the benchmark binary, passing its output through."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False, preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="per-round request count multiplier")
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's self-tests instead")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    build(out)
    data = os.path.join(out, "data-%d" % os.getpid())
    try:
        if args.self_test:
            return run_binary([os.path.join(out, "perfbench_selftest"), data])
        cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--scale", repr(args.scale),
               "--data-dir", data]
        if args.trace:
            spans = os.path.join(out, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans-out", os.path.join(
                spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
        return run_binary(cmd)
    finally:
        shutil.rmtree(data, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
