#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the repository's library,
the shipped wdpt_server and perfbench_loadgen with CMake into the build
directory ($CARGO_TARGET_DIR, else .bench_build), then runs the load
generator, which starts the server as a child process and drives the
workload over loopback. The load generator's last stdout line is the
result JSON; this script checks its shape and prints it as its own last
line. Build output and the load generator's diagnostics go to stderr.
See perfbench/NOTES.md.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("catalog-read", "catalog-ingest")
LOADGEN_TIMEOUT_S = 170
# Address-space cap for the load generator and the server it starts: a
# runaway run fails instead of taking the machine's memory.
ADDRESS_SPACE_BYTES = 8 << 30


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("command failed (%d): %s" % (done.returncode, " ".join(cmd)))


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", build_dir, "--target", "wdpt_server",
                "perfbench_loadgen", "-j", jobs])


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(build_dir)
    work_dir = os.path.join(build_dir, "work", args.workload)
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_loadgen"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(build_dir, "wdpt", "tools", "wdpt_server"),
           "--work-dir", work_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=LOADGEN_TIMEOUT_S,
                              preexec_fn=limit_memory, text=True)
    except subprocess.TimeoutExpired:
        fail("load generator exceeded %d s" % LOADGEN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("load generator exited with %d" % done.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
