#!/usr/bin/env bash
# Builds gloved and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload windowed-week --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and daemon state all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/gloved" ./cmd/gloved
(cd perfbench && go build -o "$out/perfbench" .)

commit=unknown
if git -C "$root" rev-parse --short HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short HEAD)
fi
exec "$out/perfbench" -gloved "$out/gloved" -work-dir "$out" -commit "$commit" "$@"
