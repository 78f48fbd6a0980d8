#!/usr/bin/env python3
"""Self-test of the sigil benchmark, run from the repository root:

    python3 sigilbench/selftest.py

1. BENCHMARK.json keeps the benchmark contract's shape and limits.
2. Every workload, traced and untraced, at simsmall for 1 s, prints
   every metric BENCHMARK.json names, with its unit, and passes its
   correctness gate.
3. With one reference digest corrupted, every workload reports failed
   operations and correct=false instead of passing.
4. In a directory holding only BENCHMARK.json and sigilbench/, the
   command exits non-zero without printing a result.

Scratch files go under $CARGO_TARGET_DIR (default .bench_build).
Exits 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)
    return ok


def check_contract(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    cmd = bench["command"]
    check(1 <= len(cmd) <= 32 and all(len(c) <= 200 for c in cmd),
          "command size")
    check(all(not c.startswith("/") and ".." not in c.split("/")
              for c in cmd), "command stays inside the repository")
    paths = bench["paths"]
    check(1 <= len(paths) <= 16 and all(PATH.match(p) for p in paths),
          "paths shape")
    check(all(os.path.isdir(os.path.join(ROOT, p)) for p in paths),
          "paths exist")
    rs = bench["run_seconds"]
    check(isinstance(rs, int) and 1 <= rs <= 60, "run_seconds range")
    wl = bench["workloads"]
    check(2 <= len(wl) <= 8 and all(set(w) == {"name", "why"} and
                                    len(w["why"]) <= 200 and
                                    "\n" not in w["why"] for w in wl),
          "workloads shape")
    e2e, layers = bench["end_to_end"], bench["per_layer"]
    check(1 <= len(e2e) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"} and
        0 < m["bound"] <= 0.25 for m in e2e), "end_to_end shape")
    check(1 <= len(layers) <= 128 and all(
        set(m) == {"name", "unit", "better"} for m in layers),
        "per_layer shape")
    metrics = e2e + layers
    names = [w["name"] for w in wl] + [m["name"] for m in metrics]
    check(all(NAME.match(n) for n in names) and
          len(set(names)) == len(names), "names well formed and unique")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
              for m in metrics), "units and directions well formed")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and
          setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in e2e),
          "setup_s present with the largest bound")
    check(os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 65536,
          "BENCHMARK.json size")


def run(args, cwd=ROOT, env=None):
    cmd = [sys.executable, "sigilbench/run.py"] + args
    p = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                       text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, p


def check_run(bench, workload, trace, reference=None):
    args = ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--scale", "simsmall"]
    if reference:
        args += ["--reference", reference]
    rc, result, proc = run(args)
    what = "%s trace=%d%s" % (workload, trace,
                              " corrupted-reference" if reference else "")
    if not check(rc == 0 and result is not None, what + ": ran"):
        sys.stderr.write(proc.stderr[-2000:])
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}
          and isinstance(result["attempted"], int)
          and isinstance(result["failed"], int)
          and result["attempted"] >= 1, what + ": result keys")
    want = bench["per_layer"] if trace else bench["end_to_end"]
    got = result["metrics"]
    check(set(got) == {m["name"] for m in want} and all(
        got[m["name"]]["unit"] == m["unit"] and
        isinstance(got[m["name"]]["value"], (int, float)) for m in want),
        what + ": every metric with its unit")
    table = proc.stdout
    check(all(re.search(r"^%s\s+\S+\s+%s\b" % (re.escape(m["name"]),
                                               re.escape(m["unit"])),
                        table, re.M) for m in want),
          what + ": metric table printed")
    if reference:
        check(result["correct"] is False and result["failed"] >= 1,
              what + ": corrupted digest reported as a failure")
    else:
        check(result["correct"] is True and result["failed"] == 0,
              what + ": correct")


def corrupt_reference(scratch):
    src = os.path.join(HERE, "reference_digests.txt")
    dst = os.path.join(scratch, "corrupt_digests.txt")
    out, done = [], False
    with open(src, encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if not done and len(parts) == 4 and parts[1] == "simsmall":
                flipped = "%016x" % (int(parts[3], 16) ^ 1)
                line = " ".join(parts[:3] + [flipped]) + "\n"
                done = True
            out.append(line)
    with open(dst, "w", encoding="utf-8") as f:
        f.writelines(out)
    return dst


def check_bare_directory(scratch):
    bare = os.path.join(scratch, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "sigilbench"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    rc, result, _ = run(["--workload", "live_profile", "--seed", "1",
                         "--seconds", "1", "--trace", "0"], cwd=bare,
                        env=env)
    check(rc != 0 and result is None,
          "without sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    check_contract(bench)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    scratch = os.path.join(ROOT, target, "selftest")
    os.makedirs(scratch, exist_ok=True)
    corrupt = corrupt_reference(scratch)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
        check_run(bench, w["name"], 0, reference=corrupt)
    check_bare_directory(scratch)
    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
