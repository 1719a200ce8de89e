#!/usr/bin/env python3
"""RFly benchmark entry point.

Builds the benchmark driver (perfbench/driver, linked against the library
sources under src/) and runs one workload:

    python3 perfbench/run.py --workload warehouse_sweep --seed 1 --seconds 20 --trace 0

The driver's last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. Extra modes:

    --smoke             one small unit of work (the benchmark's own tests)
    --write-reference   regenerate perfbench/reference/golden.txt
    --list-isas         print the SIMD variants this CPU can be forced to

The build tree lives under $CARGO_TARGET_DIR (default .bench_build) in the
repository root. Exit status: the driver's, or 3 when the build fails and 4
when the driver overruns its time limit.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE = os.path.join(BENCH_DIR, "reference", "golden.txt")
DRIVER_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (first time) and build the driver; returns its path or None."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "rfly_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "rfly_perfbench")


def source_stamp():
    """The commit when run from a git checkout, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0 and head.stdout.strip():
                return head.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--list-isas", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 3
    driver = build()
    if driver is None:
        print("run.py: build failed", file=sys.stderr)
        return 3

    if args.list_isas:
        command = [driver, "--list-isas"]
    elif args.write_reference:
        os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
        command = [driver, "--write-reference", REFERENCE]
    else:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        command = [driver, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace,
                   "--reference", REFERENCE, "--commit", source_stamp()]
        if args.smoke:
            command.append("--smoke")

    sys.stdout.flush()
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: driver exceeded %d s" % DRIVER_TIMEOUT_S, file=sys.stderr)
        return 4
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
