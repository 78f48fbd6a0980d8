#!/usr/bin/env python3
"""Regression tests for compare_bench.py's missing-suite handling.

Runs the comparer as a subprocess against small synthetic
google-benchmark JSON documents and asserts on exit codes and
diagnostics:

  - a baseline suite absent from the fresh run fails strict mode with
    a per-suite diagnostic (and still passes --check-only),
  - a fresh suite absent from the baseline likewise,
  - a benchmark entry without a "name" is a clean error, not a
    KeyError traceback,
  - a self-compare still passes both modes,
  - the classification-layer entries (BM_ClassifyRead/*,
    BM_InternReader/*, BM_ChunkAlternation, BM_FullReadDispatch
    items_per_second) are watched: a slower fresh
    run fails strict mode naming the benchmark, a missing one is a
    suite diagnostic, and BM_NativeReadDispatch stays unwatched,
  - the removed parallel-engine sweeps (BM_ShardedReplay/*,
    BM_ParallelDecode/*) are unwatched: a baseline that still carries
    them compares cleanly against a fresh run without them,
  - median_bench.py merges five runs into their per-benchmark median
    times and rates, keeps the largest other counter, records
    "runs": 5, and refuses runs that cover different benchmarks.

Registered as the ctest target bench_compare_missing_suite; runnable
standalone: python3 bench/test_compare_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile

COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "compare_bench.py")
MEDIAN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "median_bench.py")

CONTEXT = {
    "num_cpus": 4,
    "cpu_model": "Test CPU",
    "kernel": "Linux test",
    "library_build_type": "release",
}


def bench(name, **metrics):
    entry = {"name": name, "run_type": "iteration"}
    entry.update(metrics)
    return entry


def doc(benchmarks):
    return {"context": dict(CONTEXT), "benchmarks": benchmarks}


def write(tmpdir, fname, document):
    path = os.path.join(tmpdir, fname)
    with open(path, "w") as f:
        json.dump(document, f)
    return path


def run(*argv, script=COMPARE):
    proc = subprocess.run(
        [sys.executable, script, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    full = [
        bench("BM_ShadowSpanStride/64", bytes_per_second=1e9),
        bench("BM_ServerQueryThroughput/4", items_per_second=2e5),
    ]
    without_server = [
        bench("BM_ShadowSpanStride/64", bytes_per_second=1e9),
    ]
    failures = []

    def check(label, ok, output):
        if ok:
            print(f"PASS {label}")
        else:
            failures.append(label)
            print(f"FAIL {label}\n--- output ---\n{output}\n---")

    with tempfile.TemporaryDirectory() as tmp:
        base_full = write(tmp, "base_full.json", doc(full))
        base_missing = write(tmp, "base_missing.json",
                             doc(without_server))
        fresh_full = write(tmp, "fresh_full.json", doc(full))
        fresh_missing = write(tmp, "fresh_missing.json",
                              doc(without_server))

        # Self-compare passes strict and check-only.
        rc, out = run(base_full, fresh_full)
        check("self-compare strict passes", rc == 0, out)
        rc, out = run("--check-only", base_full, fresh_full)
        check("self-compare check-only passes", rc == 0, out)

        # Baseline suite missing from the fresh run: strict fails with
        # a diagnostic naming the suite; check-only still passes but
        # prints the same diagnostic.
        rc, out = run(base_full, fresh_missing)
        check("missing-from-fresh strict fails",
              rc != 0 and "BM_ServerQueryThroughput" in out
              and "missing from" in out, out)
        rc, out = run("--check-only", base_full, fresh_missing)
        check("missing-from-fresh check-only warns but passes",
              rc == 0 and "BM_ServerQueryThroughput" in out, out)

        # Fresh suite missing from the baseline: no silent pass.
        rc, out = run(base_missing, fresh_full)
        check("missing-from-baseline strict fails",
              rc != 0 and "BM_ServerQueryThroughput" in out
              and "no baseline" in out, out)
        rc, out = run("--check-only", base_missing, fresh_full)
        check("missing-from-baseline check-only warns but passes",
              rc == 0 and "BM_ServerQueryThroughput" in out, out)

        # A nameless benchmark entry is a clean diagnostic, never a
        # KeyError traceback.
        nameless = doc([{"run_type": "iteration",
                         "bytes_per_second": 1e9}])
        base_nameless = write(tmp, "base_nameless.json", nameless)
        rc, out = run(base_nameless, fresh_full)
        check("nameless entry is a clean error",
              rc != 0 and "no \"name\" field" in out
              and "Traceback" not in out, out)

        # An aggregate row without a name is skipped, not fatal.
        with_aggregate = doc([{"run_type": "aggregate"}] + full)
        base_agg = write(tmp, "base_agg.json", with_aggregate)
        rc, out = run(base_agg, fresh_full)
        check("nameless aggregate rows are skipped", rc == 0, out)

        # Classification layer: both kernel variants, reader
        # interning, chunk resolution and the full read dispatch are
        # gated on items_per_second.
        layer = [
            bench("BM_ClassifyRead/0", items_per_second=1e7),
            bench("BM_ClassifyRead/1", items_per_second=5e6),
            bench("BM_InternReader/1", items_per_second=1e8),
            bench("BM_ChunkAlternation", items_per_second=1e8),
            bench("BM_FullReadDispatch", items_per_second=1e7),
            bench("BM_NativeReadDispatch", items_per_second=1e8),
        ]
        base_layer = write(tmp, "base_layer.json", doc(layer))
        rc, out = run(base_layer, base_layer)
        check("classification layer self-compare passes",
              rc == 0 and "BM_ClassifyRead/0 [items_per_second]" in out
              and "BM_ClassifyRead/1 [items_per_second]" in out
              and "BM_FullReadDispatch [items_per_second]" in out
              and "BM_NativeReadDispatch" not in out, out)
        for name in ("BM_ClassifyRead/0", "BM_InternReader/1",
                     "BM_ChunkAlternation", "BM_FullReadDispatch"):
            slower = [bench(b["name"], items_per_second=(
                b["items_per_second"] * 0.8 if b["name"] == name
                else b["items_per_second"])) for b in layer]
            fresh_slow = write(tmp, "fresh_slow.json", doc(slower))
            rc, out = run(base_layer, fresh_slow)
            check(f"{name} 20% slower fails strict",
                  rc != 0 and f"REGRESSED {name} " in out, out)
            dropped = [b for b in layer if b["name"] != name]
            fresh_drop = write(tmp, "fresh_drop.json", doc(dropped))
            rc, out = run(base_layer, fresh_drop)
            check(f"{name} missing from fresh fails strict",
                  rc != 0 and f"missing  {name} " in out, out)

        # Removed parallel engines: their sweeps are no longer
        # watched, so an older baseline compares on the rest.
        retired = [
            bench("BM_ShardedReplay/4", items_per_second=1e6),
            bench("BM_ParallelDecode/4", items_per_second=4e7),
            bench("BM_FullReadDispatch", items_per_second=1e7),
        ]
        base_retired = write(tmp, "base_retired.json", doc(retired))
        fresh_serial = write(tmp, "fresh_serial.json", doc(retired[2:]))
        rc, out = run(base_retired, fresh_serial)
        check("removed parallel-engine sweeps are unwatched",
              rc == 0 and "BM_FullReadDispatch [items_per_second]" in out
              and "BM_ShardedReplay" not in out
              and "BM_ParallelDecode" not in out, out)

        # Median baseline: five runs of two benchmarks, run order
        # shuffled so neither the first nor the last run is the median
        # and the mean (3.8) differs from it.
        times = [9.0, 1.0, 3.0, 2.0, 4.0]
        run_paths = []
        for i, t in enumerate(times):
            run_paths.append(write(tmp, f"run{i}.json", doc([
                bench("BM_FullReadDispatch", real_time=t, cpu_time=t * 2,
                      items_per_second=1e7 / t, iterations=100 + i),
                bench("BM_ServerQueryThroughput/4/real_time",
                      real_time=10 * t, cpu_time=10 * t,
                      failed_requests=i % 3, time_unit="ns"),
            ])))
        merged_path = os.path.join(tmp, "merged.json")
        rc, out = run(merged_path, *run_paths, script=MEDIAN)
        merged = {}
        if rc == 0:
            with open(merged_path) as f:
                merged = json.load(f)
        rows = {b["name"]: b for b in merged.get("benchmarks", [])}
        read = rows.get("BM_FullReadDispatch", {})
        srv = rows.get("BM_ServerQueryThroughput/4/real_time", {})
        check("median merge picks each benchmark's median run",
              rc == 0 and read.get("real_time") == 3.0
              and read.get("cpu_time") == 6.0
              and abs(read.get("items_per_second", 0) - 1e7 / 3) < 1
              and srv.get("real_time") == 30.0
              and srv.get("time_unit") == "ns", out + json.dumps(merged))
        check("median merge keeps the largest other counter",
              srv.get("failed_requests") == 2
              and read.get("iterations") == 104, json.dumps(merged))
        check("median merge records the run count",
              merged.get("context", {}).get("runs") == 5
              and merged.get("context", {}).get("num_cpus") == 4,
              json.dumps(merged))
        rc, out = run(merged_path, merged_path, script=COMPARE)
        check("merged baseline self-compares", rc == 0, out)
        short = write(tmp, "short.json", doc([
            bench("BM_FullReadDispatch", real_time=1.0, cpu_time=1.0)]))
        rc, out = run(merged_path, run_paths[0], short, script=MEDIAN)
        check("median merge refuses runs with different benchmarks",
              rc != 0 and "BM_ServerQueryThroughput/4/real_time" in out
              and "Traceback" not in out, out)

    if failures:
        print(f"\n{len(failures)} case(s) failed: {failures}")
        return 1
    print("\nall compare_bench.py missing-suite cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
