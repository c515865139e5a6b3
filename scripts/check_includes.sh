#!/usr/bin/env bash
# check_includes.sh — header-hygiene gate for the pluggable pipeline.
#
# dse/rsm_flow.hpp is the flow's public face; it must speak only the
# registry interfaces (rsm/surrogate.hpp, doe/design.hpp), never a
# concrete model or design header. If one leaks back in, every flow
# consumer silently recouples to that implementation and the registries
# stop being the single extension point.
#
# src/dse is harvester-backend-blind in the same way: device physics
# reaches it only through the harvester_model hooks, so no file there
# may dynamic_cast to a harvester type.
#
# Wired into CTest as `header_hygiene` (tier-1 catches it).
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root" || exit 2

header="src/dse/rsm_flow.hpp"
status=0

# Concrete implementation headers the public flow header must not name.
forbidden=(
    'rsm/quadratic_model.hpp'
    'rsm/stepwise.hpp'
    'rsm/kriging.hpp'
    'doe/d_optimal.hpp'
    'doe/designs.hpp'
    'doe/sampling.hpp'
)

for inc in "${forbidden[@]}"; do
    if grep -qE "^#include[[:space:]]+\"$inc\"" "$header"; then
        echo "check_includes: $header includes concrete header $inc" >&2
        status=1
    fi
done

# And it must keep speaking the registry interfaces.
for inc in 'rsm/surrogate.hpp' 'doe/design.hpp'; do
    if ! grep -qE "^#include[[:space:]]+\"$inc\"" "$header"; then
        echo "check_includes: $header lost registry include $inc" >&2
        status=1
    fi
done

casts=$(grep -nE 'dynamic_cast[[:space:]]*<[^>]*(harvester|microgenerator)' \
            src/dse/*.hpp src/dse/*.cpp)
if [ -n "$casts" ]; then
    echo "check_includes: src/dse casts to a concrete harvester type:" >&2
    echo "$casts" >&2
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "check_includes: $header is registry-only; src/dse is backend-blind"
else
    echo "check_includes: FAILED" >&2
fi
exit $status
