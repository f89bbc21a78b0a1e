#!/usr/bin/env python3
"""Builds and runs the MonkeyDB benchmark (perfbench/monkeybench).

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Run it from the root of a source tree. It builds the engine and monkeybench
from source into .bench_build/perfbench (CMake, Release), runs one workload
in a scratch directory under .bench_build/data, removes that directory, and
relays monkeybench's output: the last stdout line is the result JSON. Build
output goes to stderr. The exit code is monkeybench's (0 only if every output
verified), or nonzero without a result if the tree cannot be built.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("point_read", "ingest_scan", "resp_pipeline")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no engine sources under {root / 'src'}")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "monkeybench", "-j", jobs])
    for cmd in steps:
        remaining = deadline - time.monotonic()
        try:
            result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=max(1, remaining))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if result.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    binary = build_dir / "monkeybench"
    if not binary.is_file():
        fail("build produced no monkeybench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="only check that the traced wrappers leave the "
                             "engine's counters unchanged")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path(__file__).resolve().parent.parent
    binary = build(root, root / ".bench_build" / "perfbench")

    name = "selftest" if args.selftest else args.workload
    data_dir = root / ".bench_build" / "data" / f"{name}-{os.getpid()}"
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir(parents=True)
    cmd = [str(binary), "--seed", str(args.seed), "--dir", str(data_dir)]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
    # Environment overrides of engine knobs (MONKEYDB_IO_BACKEND and the
    # like) would change what is measured; the benchmark runs without them.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MONKEYDB_")}
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(data_dir, ignore_errors=True)
        fail(f"{name} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    shutil.rmtree(data_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode if proc.returncode >= 0 else 1)


if __name__ == "__main__":
    main()
