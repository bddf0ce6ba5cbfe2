#!/bin/sh
# Regenerates BENCH_lifetime.json (repo root) from the rule-pass, engine,
# parallel, tiled and serve microbenchmarks. The committed file tracks
# the hot-kernel numbers across PRs; a "baseline" section, when present, is
# preserved verbatim so before/after comparisons survive regeneration.
# Assembly runs through bench_report (the repo's own JSON writer) — no
# python needed. Every regeneration stamps host_cpus, so a number can
# always be traced to the hardware class that produced it; bench_report
# also warns about rows the previous file had that the fresh run no longer
# measures.
#
# Usage: tools/bench_json.sh [output.json]
# Env:   PACDS_BENCH_BIN_DIR  directory with micro_cds/micro_engine/
#                             micro_parallel/micro_tiles/bench_serve/
#                             bench_report (default: build/bench)
#        PACDS_BENCH_MIN_TIME --benchmark_min_time value (default: 0.2)
#        PACDS_BENCH_STRICT   1 = pass --strict to bench_report, failing on
#                             stale/missing rows (CI's bench smoke path)
set -eu

OUT=${1:-BENCH_lifetime.json}
BIN_DIR=${PACDS_BENCH_BIN_DIR:-build/bench}
MIN_TIME=${PACDS_BENCH_MIN_TIME:-0.2}

TMP_CDS=$(mktemp)
TMP_ENGINE=$(mktemp)
TMP_PARALLEL=$(mktemp)
TMP_TILES=$(mktemp)
TMP_SERVE=$(mktemp)
trap 'rm -f "$TMP_CDS" "$TMP_ENGINE" "$TMP_PARALLEL" "$TMP_TILES" "$TMP_SERVE"' EXIT

"$BIN_DIR/micro_cds" --benchmark_filter='^BM_Rule(1|2Refined)Pass/' \
  --benchmark_min_time="$MIN_TIME" --benchmark_format=json >"$TMP_CDS"
"$BIN_DIR/micro_engine" --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP_ENGINE"
"$BIN_DIR/micro_parallel" --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP_PARALLEL"
# The large rows pin their own iteration counts; min_time only drives the
# n = 10k rows.
"$BIN_DIR/micro_tiles" --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP_TILES"
"$BIN_DIR/bench_serve" --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json >"$TMP_SERVE"

STRICT=
if [ "${PACDS_BENCH_STRICT:-0}" = "1" ]; then STRICT=--strict; fi
"$BIN_DIR/bench_report" $STRICT "$TMP_CDS" "$TMP_ENGINE" "$TMP_PARALLEL" \
  "$TMP_TILES" "$TMP_SERVE" "$OUT"
