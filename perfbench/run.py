#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program, tcm_perfbench, from this checkout's sources
(Release, into .bench_build/ at the checkout root) on first use, then runs
it from the checkout root with its scratch files under .bench_work/. Its
last line of standard output is the run's JSON result; the exit code is
its own (1 when an operation failed its correctness gate).

`--workload all` runs every workload of BENCHMARK.json in turn with the
same arguments, each ending in its own result line, and exits non-zero
when any of them does.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "tcm_perfbench"
# tcm_perfbench stops on its own within its --seconds plus set-up; this
# only guards against a hung run.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds tcm_perfbench; output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no tcm sources to build the benchmark from")
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "--target",
                   "tcm_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def run(args):
    child = subprocess.Popen([str(BINARY)] + args, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    build()
    args = sys.argv[1:]
    if "--workload" not in args[:-1] or args[args.index("--workload") + 1] != "all":
        return run(args)
    where = args.index("--workload") + 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    codes = [run(args[:where] + [workload["name"]] + args[where + 1:])
             for workload in spec["workloads"]]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
