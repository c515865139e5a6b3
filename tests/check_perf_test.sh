#!/usr/bin/env bash
# Contract of scripts/check_perf.sh on hand-written BENCH_*.json pairs:
# a rate within the tolerance passes, one below it fails, and a fresh
# file from another build type, native-arch or sanitizer setting is
# refused as not comparable (exit 2) instead of being gated. The "build"
# line must not be read as a metric. Usage: check_perf_test.sh <check_perf.sh>
set -u

check="$1"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT
unset EHDSE_SKIP_PERF_GATE EHDSE_PERF_TOLERANCE

# bench_file <path> <build_type> <native_arch> <sanitize> <rate>
bench_file() {
    cat > "$1" <<JSON
{
  "bench": "demo",
  "build": {"build_type": "$2", "native_arch": $3, "sanitize": "$4", "compiler": "GNU 12.2.0"},
  "metrics": [
    {"metric": "demo_evals_per_s", "value": $5, "unit": "evals/s", "config": "demo"},
    {"metric": "demo_speedup_x", "value": 2.5, "unit": "x", "config": "demo"}
  ]
}
JSON
}

failures=0
# expect <name> <exit code> <fresh> <baseline> [<output pattern>]
expect() {
    local out rc
    out=$("$check" "$3" "$4" 2>&1)
    rc=$?
    if [ "$rc" -ne "$2" ]; then
        echo "FAIL $1: exit $rc, want $2"; echo "$out"
        failures=$((failures + 1))
    elif [ -n "${5:-}" ] && ! grep -q -e "$5" <<<"$out"; then
        echo "FAIL $1: output lacks '$5'"; echo "$out"
        failures=$((failures + 1))
    else
        echo "ok   $1"
    fi
}

base="$workdir/base.json"
bench_file "$base" Release false off 100
# The baseline's compiler is information only: another one still compares.
sed 's/GNU 12.2.0/not recorded/' "$base" > "$workdir/base_other_cc.json"

bench_file "$workdir/same.json" Release false off 90
expect within_tolerance 0 "$workdir/same.json" "$base" "perf gate ok (1 metrics checked)"
expect other_compiler 0 "$workdir/same.json" "$workdir/base_other_cc.json" "perf gate ok"

bench_file "$workdir/slow.json" Release false off 80
expect regression 1 "$workdir/slow.json" "$base" "FAIL demo_evals_per_s"

bench_file "$workdir/o2.json" RelWithDebInfo false off 100
expect build_type_differs 2 "$workdir/o2.json" "$base" "not comparable.*build_type=RelWithDebInfo"

bench_file "$workdir/native.json" Release true off 100
expect native_arch_differs 2 "$workdir/native.json" "$base" "not comparable.*native_arch=true"

bench_file "$workdir/asan.json" Release false address 100
expect sanitize_differs 2 "$workdir/asan.json" "$base" "not comparable.*sanitize=address"

grep -v '"build":' "$workdir/same.json" > "$workdir/unrecorded.json"
expect build_unrecorded 2 "$workdir/unrecorded.json" "$base" "not comparable.*build_type=unrecorded"

# The build line is no metric: no "new metric" or "info" row names it.
out=$("$check" "$workdir/same.json" "$base" 2>&1)
if grep -q -e 'metric build' -e 'build_type =' <<<"$out"; then
    echo "FAIL build_line_not_a_metric"; echo "$out"
    failures=$((failures + 1))
else
    echo "ok   build_line_not_a_metric"
fi

[ "$failures" -eq 0 ] || { echo "$failures check(s) failed"; exit 1; }
echo "check_perf contract ok"
