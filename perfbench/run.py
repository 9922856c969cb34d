#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload once.

    python3 perfbench/run.py --workload search_sv --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test      # the benchmark helpers' tests

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); later runs only re-check it. Standard output ends with one
JSON line {correct, attempted, failed, metrics}; the exit code is non-zero
when the build fails or a correctness gate does not hold.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("search_sv", "search_tn", "sample_tn", "serve_mixed")


def build(build_dir, targets):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1)), "--target"] + targets)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                break
        else:
            return True
    with open(log_path) as log:
        sys.stderr.write("benchmark build failed:\n" + log.read()[-4000:])
    return False


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = "perfbench_tests" if args.self_test else "perfbench_driver"
    if not build(build_dir, [target]):
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(build_dir, target)]).returncode

    cmd = [os.path.join(build_dir, target),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--reference", os.path.join(HERE, "reference.json"),
           "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
        if os.path.exists(cmd[-1]):
            os.remove(cmd[-1])
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
