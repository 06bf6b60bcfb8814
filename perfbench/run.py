#!/usr/bin/env python3
# Copyright 2026 MixQ-GNN Authors
"""Serving benchmark: builds perfbench from source, checks its arithmetic, runs
one workload and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root. The build lives in .bench_build/perfbench (the
library is compiled from the checkout's src/ with the repository's own CMake
flags, Release). The last line is one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. The workload "all" runs every workload in turn and
prints one combined object whose metric names are "<workload>.<metric>".

Exit status: 0 when every reply matched its reference, 1 otherwise or when
the build or the self-tests fail, 2 on a usage error. Nothing is printed as a
result when the program cannot be built.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
WORKLOADS = ["tab3-wire", "powerlaw-point"]

BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
SETTLE_AFTER_BUILD_S = 5


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build():
    """Configures (once) and builds perfbench; False when it cannot."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("no repository sources next to perfbench/; nothing to build")
        return False
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_logged(cmd, build_log, BUILD_TIMEOUT_S) != 0:
            log("configure failed; see " + build_log)
            return False
    jobs = str(os.cpu_count() or 1)
    started = time.monotonic()
    if run_logged(["cmake", "--build", BUILD, "-j", jobs], build_log,
                  BUILD_TIMEOUT_S) != 0:
        log("build failed; see " + build_log)
        return False
    if time.monotonic() - started > SETTLE_AFTER_BUILD_S:
        # A real compile just ran: flush its writes and let the machine go
        # quiet, so writeback and a hot scheduler do not leak into the first
        # measured run.
        os.sync()
        time.sleep(SETTLE_AFTER_BUILD_S)
    return True


def selftest():
    proc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        log("self-tests failed; refusing to measure")
        return False
    return True


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, output lines, parsed result or
    None)."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", WORK]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as expired:
        # run() has killed and reaped the program; keep what it printed.
        out = expired.stdout or ""
        if isinstance(out, bytes):
            out = out.decode(errors="replace")
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 1, out.rstrip("\n").split("\n"), None
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    return proc.returncode, lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if os.environ.get("MIXQ_FAULTS"):
        log("MIXQ_FAULTS is set; injected faults would count as failed "
            "requests, refusing to measure")
        return 2
    if not build() or not selftest():
        return 1

    if args.workload != "all":
        code, lines, result = run_one(args.workload, args.seed, args.seconds,
                                      args.trace)
        print("\n".join(lines), flush=True)
        if result is None and code == 0:
            log("the last line of output is not a result")
            return 1
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, lines, result = run_one(workload, args.seed, args.seconds,
                                      args.trace)
        print("\n".join(lines), flush=True)
        worst = max(worst, code)
        if result is None:
            combined["correct"] = False
            worst = max(worst, 1)
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
