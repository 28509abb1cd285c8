#!/usr/bin/env python3
"""Builds and runs the served mvp-tree benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload range_flat --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is configured from
perfbench/CMakeLists.txt, which compiles the library from ../src, into
$CARGO_TARGET_DIR (default .bench_build) inside the checkout; the store and
trace files live there too. The last line of standard output is the result
object. Exits nonzero, without a result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("range_flat", "mixed_rw")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    source = os.path.join(root, "perfbench")
    out_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = os.path.join(out_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    for cmd in (["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "--target", "mvpbench", "-j", jobs]):
        step = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if step.returncode != 0:
            sys.stderr.write(step.stdout[-4000:])
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return 2

    binary = os.path.join(build, "mvpbench")
    work = os.path.join(out_root, "work", "%s-%d-%d" % (args.workload, args.seed,
                                                        os.getpid()))
    try:
        run = subprocess.run([binary, "--workload", args.workload,
                              "--seed", str(args.seed),
                              "--seconds", repr(args.seconds),
                              "--trace", str(args.trace),
                              "--work-dir", work],
                             stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)  # stores are hundreds of MiB
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        # Show what was measured, but never as a result line.
        sys.stderr.write("\n".join(lines) + "\n")
        sys.stderr.write("run.py: mvpbench exited with %d\n" % run.returncode)
        return run.returncode if run.returncode > 0 else 3
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
