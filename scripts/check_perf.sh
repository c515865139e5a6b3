#!/usr/bin/env bash
# check_perf.sh — compare a freshly produced BENCH_<name>.json against the
# committed baseline at the repo root and fail on a throughput regression.
# This is the perf gate behind the `perf`-labelled ctest: the batch kernel
# must not silently decay.
#
# Usage: check_perf.sh <fresh.json> [<baseline.json>]
#   When <baseline.json> is omitted it is looked up at the repo root by
#   the fresh file's basename.
#
# Rules (per metric, matched by name):
#   * unit "evals/s": fresh must be >= (1 - tolerance) * baseline —
#     default tolerance 0.15 (the >15% regression gate), override with
#     EHDSE_PERF_TOLERANCE. Scalar and batch rates are gated separately.
#   * other units, speedup ratios included, are informational only. The
#     scalar and batch paths share one physics implementation, so a
#     batch/scalar ratio measures lane amortisation alone; each side's
#     absolute rate is what guards against regressions.
#
# Both files must come from the same kind of build: the "build" line
# (bench/bench_json.hpp) must agree on build_type, native_arch and
# sanitize, else the files are not comparable (an -O2 or sanitised run
# against a Release baseline reads as a large "regression") and the
# script exits 2 without gating. A file without a "build" line counts as
# "unrecorded". The compiler is printed for information only.
#
# Exit codes: 0 ok, 1 regression, 2 usage/parse error or builds not
#   comparable, 77 skipped (EHDSE_SKIP_PERF_GATE set — ctest reports SKIP).
set -u

if [ -n "${EHDSE_SKIP_PERF_GATE:-}" ]; then
    echo "perf gate skipped (EHDSE_SKIP_PERF_GATE set)"
    exit 77
fi

fresh="${1:-}"
if [ -z "$fresh" ] || [ ! -f "$fresh" ]; then
    echo "usage: $0 <fresh.json> [<baseline.json>]" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
baseline="${2:-$root/$(basename "$fresh")}"
if [ ! -f "$baseline" ]; then
    echo "check_perf: no committed baseline at $baseline" >&2
    exit 2
fi

tolerance="${EHDSE_PERF_TOLERANCE:-0.15}"

# The metric lines are flat (one object per line, fixed key order — see
# bench/bench_json.hpp), so awk can read them without a JSON library.
read_metrics() {
    awk -F'"' '/"metric":/ {
        name = $4; unit = $10;
        split($0, parts, /"value": /); split(parts[2], v, /,/);
        print name, v[1], unit;
    }' "$1"
}

# build_field <file> <key>: one value from the file's "build" line.
build_field() {
    local line
    line=$(grep -m1 '"build":' "$1") || { echo unrecorded; return; }
    printf '%s\n' "$line" |
        sed -n 's/.*"'"$2"'": "\{0,1\}\([^",}]*\).*/\1/p'
}

for key in build_type native_arch sanitize; do
    f=$(build_field "$fresh" "$key")
    b=$(build_field "$baseline" "$key")
    if [ "$f" != "$b" ]; then
        echo "check_perf: not comparable: $fresh has $key=$f, baseline $baseline has $key=$b" \
             "(scripts/build_bench_tree.sh builds the baselines' configuration)" >&2
        exit 2
    fi
done
echo "  info build $(build_field "$fresh" build_type), compiler $(build_field "$fresh" compiler)" \
     "(baseline: $(build_field "$baseline" compiler))"

status=0
checked=0
while read -r name value unit; do
    base=$(read_metrics "$baseline" | awk -v n="$name" '$1 == n {print $2; exit}')
    if [ -z "$base" ]; then
        echo "  new metric $name = $value $unit (no baseline)"
        continue
    fi
    case "$unit" in
    evals/s)
        checked=$((checked + 1))
        ok=$(awk -v f="$value" -v b="$base" -v t="$tolerance" \
                 'BEGIN {print (f >= (1 - t) * b) ? 1 : 0}')
        delta=$(awk -v f="$value" -v b="$base" 'BEGIN {printf "%+.1f%%", 100 * (f / b - 1)}')
        if [ "$ok" = 1 ]; then
            echo "  ok   $name: $value $unit vs baseline $base ($delta)"
        else
            echo "  FAIL $name: $value $unit vs baseline $base ($delta, tolerance -$(awk -v t="$tolerance" 'BEGIN {printf "%.0f%%", 100*t}'))"
            status=1
        fi
        ;;
    *)
        echo "  info $name = $value $unit"
        ;;
    esac
done < <(read_metrics "$fresh")

if [ "$checked" -eq 0 ]; then
    echo "check_perf: no gated metrics found in $fresh" >&2
    exit 2
fi
[ "$status" -eq 0 ] && echo "perf gate ok ($checked metrics checked)"
exit "$status"
