#!/usr/bin/env bash
# build_bench_tree.sh — configure and build the bench harnesses the way
# the committed BENCH_*.json baselines are built: Release, portable ISA
# (no -march=native), no sanitizer, tests and examples off. This is the
# one list of bench-tree options; scripts/run_benchmarks.sh (which records
# the baselines) and the `perf_bench_release_build` ctest fixture (which
# builds what the perf gates time) both call it, so the gates cannot time
# a build their baselines did not come from.
#
# Usage: build_bench_tree.sh <build_dir> <target>... [-- <cmake arg>...]
#   Arguments after `--` go to the configure step after the shared
#   options (a generator, a compiler, a package dir). The build runs
#   with `nproc` jobs.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"

if [ $# -lt 2 ]; then
    echo "usage: $0 <build_dir> <target>... [-- <cmake arg>...]" >&2
    exit 2
fi
build="$1"
shift
targets=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
    targets+=("$1")
    shift
done
[ $# -gt 0 ] && shift  # the `--`
if [ "${#targets[@]}" -eq 0 ]; then
    echo "build_bench_tree: no target named" >&2
    exit 2
fi

cmake -B "$build" -S "$root" \
    -DCMAKE_BUILD_TYPE=Release \
    -DEHDSE_NATIVE_ARCH=OFF \
    -DEHDSE_SANITIZE= \
    -DEHDSE_BUILD_TESTS=OFF \
    -DEHDSE_BUILD_EXAMPLES=OFF \
    "$@" >/dev/null
cmake --build "$build" -j "$(nproc)" --target "${targets[@]}"
