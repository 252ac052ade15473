#!/usr/bin/env python3
"""Build and run the two-clock benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench (the repository's libraries plus the benchmark program) as a
Release build under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later calls only let the build tool confirm it
is up to date. Build output goes to a log file in the build directory,
so stdout carries only the benchmark's report, whose last line is the
JSON result. The exit code is the benchmark's: non-zero when the build
fails or a correctness check fails.

--fidelity instead re-runs the load generators at shipped bench settings and
compares with BENCH_freepart.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("app_pipeline", "tenant_serve", "crash_recovery", "async_pipeline")


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out_dir):
    """Configure (once) and build; returns the binary path or None."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                if cmd[1] == "-S":  # a failed configure must not stick
                    cache = os.path.join(out_dir, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                return None
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fidelity", action="store_true")
    args = parser.parse_args()
    if not args.fidelity and not args.workload:
        parser.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    if args.fidelity:
        return subprocess.run([binary, "--fidelity"]).returncode
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
