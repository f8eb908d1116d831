#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

Run from the root of a checkout:

    python3 simbench/run.py --workload mesh16 --seed 1 --seconds 30 --trace 0

The simulator and the benchmark are built with CMake into .bench_build/
(an incremental no-op after the first run). The benchmark's own report
goes to standard output; its last line is one JSON object with the keys
correct, attempted, failed and metrics. --trace 1 reports the per-layer
metrics instead of the end-to-end ones, writes the span trace and the
host ledger under .bench_out/, and checks the trace with the
repository's own `shrimp_validate trace`.

    python3 simbench/run.py --selftest

builds and runs the benchmark's self-tests.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "simbench")
OUT = ".bench_out"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure and build; on failure show the log's tail and exit 1."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=840).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log.write("%s\n" % e)
                rc = 1
            if rc != 0:
                break
    if rc != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        sys.stderr.write("simbench: build failed (log: %s)\n" % log_path)
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["mesh16", "stream16", "dsm16"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build()
    os.makedirs(OUT, exist_ok=True)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(BUILD, "simbench_selftest"),
                                 OUT], timeout=170).returncode)

    proc = subprocess.run(
        [os.path.join(BUILD, "simbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", OUT],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) or \
            set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        sys.stderr.write("simbench: no result (exit %d)\n" % proc.returncode)
        sys.exit(1)

    if args.trace == 1:
        stem = os.path.join(OUT, "%s-seed%d" % (args.workload, args.seed))
        check = subprocess.run(
            [os.path.join(BUILD, "shrimp_validate"), "trace",
             stem + ".trace.json"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=120)
        lines.insert(-1, check.stdout.rstrip("\n"))
        if check.returncode != 0:
            lines.insert(-1, "error: shrimp_validate rejected the trace")
            result["correct"] = False

    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
