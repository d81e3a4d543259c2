#!/usr/bin/env python3
"""End-to-end benchmark runner for BookLeaf-CPP.

Run from the root of a checkout:

    python3 perfbench/run.py --workload noh-lag-serial-250k --seed 1 \
        --seconds 20 --trace 0

It configures and builds the Release harness (perfbench/CMakeLists.txt,
which builds the library from this checkout's src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload for --seconds and prints the harness's lines; the last line of
standard output is the result object
{"correct", "attempted", "failed", "metrics"}. Workloads, metrics and
their rationale are in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Wall-clock ceiling of one harness process (the first run's build is
# outside it). The harness stops starting repetitions after --seconds.
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
            fail(f"cmake configure failed (see {log})")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_logged(["cmake", "--build", build_dir, "--target", "perfbench_e2e",
                   "-j", jobs], log) != 0:
        fail(f"build failed (see {log})")
    return os.path.join(build_dir, "perfbench_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", os.path.join("data", "noh.in")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"not a BookLeaf checkout root: {needed} is missing in {root}")

    with open(os.path.join(HERE, "checksums.json")) as f:
        checksums = json.load(f)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    exe = build(root, build_dir)

    work = os.path.join(build_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", root, "--work", work]
    if args.workload in checksums:
        cmd += ["--expect", checksums[args.workload]]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")

    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness result has unexpected keys")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
