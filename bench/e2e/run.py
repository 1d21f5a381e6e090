#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

usage: python3 bench/e2e/run.py --workload W --seed N [--seconds T]
                                [--trace 0|1]

Configures bench/e2e in Release under build/bench-e2e and builds entk_bench
with the daemons it spawns (the first run compiles src/ and tools/, later
runs are a no-op build), then runs one invocation of entk_bench. --trace 1
selects the traced invocation, which reports the per-layer metrics. Build
output goes to stderr; the last line on stdout is the benchmark's result
object. Exits non-zero, without a result, when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / "build" / "bench-e2e"
WORKLOADS = ("bulk", "chain", "durable", "remote")


def build():
    configure = ["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "entk_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    cmd = [str(BUILD / "entk_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out-dir", str(BUILD / "out")]
    if args.trace:
        cmd.append("--traced")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
