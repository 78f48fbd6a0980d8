#!/usr/bin/env python3
"""Build the sigil benchmark from source (Release) and run one workload.

Usage, from the repository root:

    python3 sigilbench/run.py --workload live_profile --seed 1 \
        --seconds 20 --trace 0

Workloads: live_profile, trace_pipeline, query_serve (see README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Build output goes to standard
error. The build tree lives in $CARGO_TARGET_DIR (default .bench_build)
under the repository root, and so do the traces, the daemon socket and
the span dumps of traced runs.

The build guard follows bench/run_benches.sh: a build tree configured
Debug, or with sanitizers, is refused; the binary also refuses to run
when it was compiled without optimization or with a sanitizer.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("live_profile", "trace_pipeline", "query_serve")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("sigilbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def refuse_bad_build_tree(build_dir):
    """Apply bench/run_benches.sh's rules to an existing build tree."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return
    with open(cache, encoding="utf-8", errors="replace") as f:
        text = f.read()
    if re.search(r"^CMAKE_BUILD_TYPE:[^=]*=Debug$", text, re.M):
        fail(build_dir + " is configured CMAKE_BUILD_TYPE=Debug; "
             "benchmark numbers must come from an optimized build", 3)
    if re.search(r"^SIGIL_SANITIZE:[^=]*=.+$", text, re.M) or \
            re.search(r"^CMAKE_CXX_FLAGS[^=]*=.*-fsanitize", text, re.M):
        fail(build_dir + " is a sanitizer build; benchmark numbers "
             "must come from a plain Release build", 3)


def build(build_dir):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sigil sources next to the benchmark (" +
             os.path.join(ROOT, "src") + " is missing)")
    refuse_bad_build_tree(build_dir)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "sigilbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--scale", default="simmedium",
                    choices=("simsmall", "simmedium"),
                    help="reference_digests.txt covers these two scales")
    ap.add_argument("--reference",
                    default=os.path.join(HERE, "reference_digests.txt"),
                    help="reference profile digests (self-test only)")
    args = ap.parse_args()

    root = build_root()
    binary = build(os.path.join(root, "sigilbench"))
    # Relative to the repository root: keeps the daemon's socket path
    # short whatever the checkout's location.
    work = os.path.relpath(os.path.join(root, "sigilbench-work"), ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--reference",
           os.path.abspath(args.reference), "--work-dir", work]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(rc)


if __name__ == "__main__":
    main()
