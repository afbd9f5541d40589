#!/usr/bin/env sh
# Perf-regression harness: run the hot-path kernel micro-benchmarks and the
# sharded throughput benchmark, then convert the output into the
# machine-readable BENCH_<label>.json trajectory point via cmd/benchjson.
#
# Usage:
#   sh scripts/bench.sh                 # full run, writes BENCH_PR3.json
#   BENCH_LABEL=PR4 sh scripts/bench.sh # next trajectory point
#   BENCHTIME=1x sh scripts/bench.sh    # CI smoke: one iteration per benchmark
#   BENCHCOUNT=5 sh scripts/bench.sh    # 5 runs per benchmark; benchjson
#                                       # records the median (use for the
#                                       # committed trajectory points — a
#                                       # single run on a shared machine is
#                                       # noise-dominated)
set -eu

LABEL="${BENCH_LABEL:-PR3}"
BENCHTIME="${BENCHTIME:-1s}"
BENCHCOUNT="${BENCHCOUNT:-1}"
OUT="${BENCH_OUT:-BENCH_${LABEL}.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT INT TERM

# Kernel micro-benchmarks: the ECC codec, the CME engine, the per-line
# fingerprinters that sit on both, and the PCM device (a dense write on one
# long-lived device, and a fresh device taking hash-scattered metadata
# writes, which is where first-touch cost of its wear store shows).
go test -run '^$' -bench '.' -benchmem -benchtime "$BENCHTIME" -count "$BENCHCOUNT" \
  ./internal/ecc ./internal/crypto ./internal/fingerprint ./internal/nvm | tee "$TMP"

# System-level: single-threaded write path and the sharded engine's
# concurrent throughput (writes/s is the headline lines/sec metric).
go test -run '^$' -bench 'BenchmarkSystemWrite|BenchmarkShardedThroughput|BenchmarkStageTracingOverhead' \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCHCOUNT" . | tee -a "$TMP"

# Cluster-level: a routed write through a real TCP backend with
# distributed tracing off vs on — the "on" rows must hold the same
# allocs/op as "off" (hop recording is allocation-free by design).
go test -run '^$' -bench 'BenchmarkRouterTracingOverhead' \
  -benchmem -benchtime "$BENCHTIME" -count "$BENCHCOUNT" ./internal/cluster | tee -a "$TMP"

go run ./cmd/benchjson -label "$LABEL" -o "$OUT" "$TMP"
echo "bench: wrote $OUT"
