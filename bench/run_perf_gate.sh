#!/usr/bin/env bash
# Driver for the perf-gate ctests: run a bench binary (it writes
# BENCH_<name>.json into the work dir), then hand the fresh file to
# scripts/check_perf.sh for comparison against the committed baseline.
# The JSON name derives from the binary name (bench_foo -> BENCH_foo.json).
# Exit 77 (skip) propagates so ctest's SKIP_RETURN_CODE applies.
#
# The binary must be built the way the baseline was: Release, portable
# ISA, no sanitizer. The ctests pass the one the perf_bench_release_build
# fixture builds (build_perf_bench.sh); check_perf.sh exits 2 ("not
# comparable") on a binary from any other configuration.
#
# A wall-clock benchmark on a shared/virtualised host sees bursty
# external load, so a single marginal reading must not fail the build:
# the bench+check cycle retries up to EHDSE_PERF_GATE_ATTEMPTS (default
# 3) times and passes on the first clean run. Genuine code regressions
# fail every attempt.
#
# Usage: run_perf_gate.sh <bench_exe> <work_dir> <check_perf.sh>
set -u

if [ -n "${EHDSE_SKIP_PERF_GATE:-}" ]; then
    echo "perf gate skipped (EHDSE_SKIP_PERF_GATE set)"
    exit 77
fi

bench_exe="$1"
work_dir="$2"
check_script="$3"
attempts="${EHDSE_PERF_GATE_ATTEMPTS:-3}"

json_name="$(basename "$bench_exe")"
json_name="BENCH_${json_name#bench_}.json"

cd "$work_dir" || exit 2
rc=1
for attempt in $(seq 1 "$attempts"); do
    [ "$attempt" -gt 1 ] && echo "perf gate: retry $attempt/$attempts"
    "$bench_exe" || exit 1
    "$check_script" "$work_dir/$json_name"
    rc=$?
    # Only a regression (1) is worth a retry: a pass, a skip or a
    # configuration error (2) stands.
    [ "$rc" -ne 1 ] && exit "$rc"
done
exit "$rc"
