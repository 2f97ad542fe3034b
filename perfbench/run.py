#!/usr/bin/env python3
"""Build and run the end-to-end planner benchmark.

    python3 perfbench/run.py --workload index_reads --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The traced run (--trace 1)
also writes a chrome-trace JSON file under <build dir>/traces/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main(argv):
    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, OSError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 2
    if argv == ["--selftest"]:
        return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode
    command = [os.path.join(out, "perfbench")] + argv
    if "--trace-dir" not in argv:
        command += ["--trace-dir", os.path.join(out, "traces")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
