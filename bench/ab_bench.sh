#!/usr/bin/env sh
# A/B the micro-benchmarks of this checkout against another revision,
# on this host, back to back.
#
# Medians recorded at one time do not carry to another on a shared
# host: the same binary can read a benchmark 1.8 ms or 2.7 ms depending
# on when it runs, so a committed BENCH_*.json baseline flags
# unchanged code. This script takes the baseline again, side by side:
#
#   1. exports BASE_REV's sources (git archive) into
#      <build-dir>/ab-base/src, unless the export there is already of
#      that commit, and builds its Release micro-benchmarks
#      there, with this checkout's bench/micro_*.cc copied over BASE_REV's
#      so both sides run identical benchmark code (the build fails
#      clearly if that code needs an API BASE_REV lacks);
#   2. builds this checkout's micro-benchmarks in <build-dir>
#      (default build-release, configured Release as in run_benches.sh);
#   3. runs each binary RUNS (5) times per side, alternating which side
#      runs first;
#   4. median-merges each side with median_bench.py and compares the
#      pair with compare_bench.py (BASE_REV as the baseline).
#
# The merged files stay in <build-dir>/ab/ as base_<bin>.json and
# head_<bin>.json. The exit status is non-zero when compare_bench.py
# reports a regression on any binary.
#
# Usage: bench/ab_bench.sh BASE_REV [build-dir] [extra benchmark args...]
#   e.g. bench/ab_bench.sh HEAD~1 build-release \
#            --benchmark_filter='BM_InternReader|BM_ClassifyRead'
set -eu

if [ $# -lt 1 ]; then
    echo "usage: $0 BASE_REV [build-dir] [extra benchmark args...]" >&2
    exit 2
fi
base_rev=$1
shift

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir="$repo_root/build-release"
if [ $# -gt 0 ]; then
    case $1 in
        -*) ;; # benchmark flag, leave it for the binaries
        *) build_dir=$1; shift ;;
    esac
fi
case $build_dir in
    /*) ;;
    *) build_dir="$PWD/$build_dir" ;;
esac

BINS="micro_shadow micro_dispatch"
RUNS=5

refuse_unoptimized() {
    if grep -q '^CMAKE_BUILD_TYPE:[^=]*=Debug$' "$1/CMakeCache.txt" ||
        grep -q 'SIGIL_SANITIZE:[^=]*=..*' "$1/CMakeCache.txt"; then
        echo "error: $1 is a Debug or sanitizer build; A/B numbers" \
             "must come from a plain Release build." >&2
        exit 1
    fi
}

# This checkout.
if [ -f "$build_dir/CMakeCache.txt" ]; then
    refuse_unoptimized "$build_dir"
else
    cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$build_dir" --target $BINS -j

# BASE_REV, exported again only when it names another commit, so a
# repeated A/B rebuilds incrementally.
base_commit=$(git -C "$repo_root" rev-parse --verify "$base_rev^{commit}")
base_src="$build_dir/ab-base/src"
base_build="$build_dir/ab-base/build"
if [ "$(cat "$base_src.commit" 2>/dev/null)" != "$base_commit" ]; then
    rm -rf "$base_src" "$base_build"
    mkdir -p "$base_src"
    git -C "$repo_root" archive "$base_commit" | tar -x -C "$base_src"
    echo "$base_commit" > "$base_src.commit"
fi
for bin in $BINS; do
    cmp -s "$repo_root/bench/$bin.cc" "$base_src/bench/$bin.cc" ||
        cp "$repo_root/bench/$bin.cc" "$base_src/bench/$bin.cc"
done
if [ ! -f "$base_build/CMakeCache.txt" ]; then
    cmake -B "$base_build" -S "$base_src" -DCMAKE_BUILD_TYPE=Release
fi
if ! cmake --build "$base_build" --target $BINS -j; then
    echo "error: this checkout's benchmark sources do not build" \
         "against $base_rev." >&2
    exit 1
fi

out_dir="$build_dir/ab"
mkdir -p "$out_dir"
status=0
for bin in $BINS; do
    if [ -z "$("$build_dir/bench/$bin" --benchmark_list_tests "$@")" ]; then
        echo "== $bin: no benchmark selected, skipped"
        continue
    fi
    base_runs=""
    head_runs=""
    i=1
    while [ "$i" -le "$RUNS" ]; do
        order="head base"
        if [ $((i % 2)) -eq 1 ]; then
            order="base head"
        fi
        for side in $order; do
            tmp="$out_dir/${side}_$bin.run$i.json"
            if [ "$side" = base ]; then
                exe="$base_build/bench/$bin"
                base_runs="$base_runs $tmp"
            else
                exe="$build_dir/bench/$bin"
                head_runs="$head_runs $tmp"
            fi
            echo "$bin: $side run $i of $RUNS"
            "$exe" --benchmark_format=json --benchmark_out="$tmp" \
                --benchmark_out_format=json "$@" > /dev/null
        done
        i=$((i + 1))
    done
    python3 "$repo_root/bench/median_bench.py" "$out_dir/base_$bin.json" \
        $base_runs
    python3 "$repo_root/bench/median_bench.py" "$out_dir/head_$bin.json" \
        $head_runs
    rm -f $base_runs $head_runs
    echo "== $bin: $base_rev (baseline) vs this checkout, median of $RUNS"
    python3 "$repo_root/bench/compare_bench.py" "$out_dir/base_$bin.json" \
        "$out_dir/head_$bin.json" || status=1
done
exit $status
