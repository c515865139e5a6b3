#!/usr/bin/env bash
# Fixture for the perf-gate ctests: build the bench binaries the gates
# time with scripts/build_bench_tree.sh, the options the committed
# baselines were recorded with (Release, portable ISA, no sanitizer).
# Exit 77 (skip) under EHDSE_SKIP_PERF_GATE, as the gates do, so ctest's
# SKIP_RETURN_CODE applies and no build runs.
#
# Usage: build_perf_bench.sh <build_dir> <target>... [-- <cmake arg>...]
set -u

if [ -n "${EHDSE_SKIP_PERF_GATE:-}" ]; then
    echo "perf gate skipped (EHDSE_SKIP_PERF_GATE set)"
    exit 77
fi
exec "$(dirname "$0")/../scripts/build_bench_tree.sh" "$@"
