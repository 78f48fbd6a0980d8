#!/usr/bin/env python3
"""Merge repeated google-benchmark JSON runs into one median baseline.

One run per benchmark is too noisy to record as a baseline on a shared
host (back-to-back runs of the same build can differ by tens of
percent), so bench/run_benches.sh runs each binary several times and
merges the runs here:

  - real_time, cpu_time and every rate counter (*_per_second) take the
    median across the runs;
  - every other numeric field takes the maximum, so a failure count
    (failed_requests) or a peak seen in any one run is kept rather
    than voted away;
  - everything else (units, run_type, ...) comes from the first run.

The merged file keeps the first run's context and benchmark order, and
its context gains "runs": the number of runs merged. Every run must
report the same benchmark names.

Usage: bench/median_bench.py OUT.json RUN.json [RUN.json ...]
"""

import json
import statistics
import sys

MEDIAN_KEYS = ("real_time", "cpu_time")


def takes_median(key):
    return key in MEDIAN_KEYS or key.endswith("_per_second")


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    rows = {}
    for b in doc.get("benchmarks", []):
        if "name" in b:
            rows[b["name"]] = b
    return doc, rows


def merge(paths):
    docs = [load(p) for p in paths]
    first_doc, first_rows = docs[0]
    for path, (_, rows) in zip(paths[1:], docs[1:]):
        if rows.keys() != first_rows.keys():
            diff = sorted(rows.keys() ^ first_rows.keys())
            sys.exit(f"error: {path} and {paths[0]} report different "
                     f"benchmarks: {', '.join(diff)}")
    merged = []
    for name, row in first_rows.items():
        runs = [rows[name] for _, rows in docs]
        out = dict(row)
        for key, value in row.items():
            if isinstance(value, bool) or not isinstance(
                    value, (int, float)):
                continue
            values = [r[key] for r in runs if key in r]
            out[key] = (statistics.median(values) if takes_median(key)
                        else max(values))
        merged.append(out)
    context = dict(first_doc.get("context", {}))
    context["runs"] = len(paths)
    return {"context": context, "benchmarks": merged}


def main(argv):
    if len(argv) < 3:
        sys.exit("usage: median_bench.py OUT.json RUN.json [RUN.json ...]")
    doc = merge(argv[2:])
    with open(argv[1], "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
