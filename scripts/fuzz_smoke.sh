#!/usr/bin/env sh
# Fuzz smoke: run every fuzz target in the repo for a bounded slice of
# wall-clock time. This is not a soak — it catches targets that crash,
# hang or reject their own seed corpus within seconds, which is the
# failure mode a code change actually introduces. Targets are found per
# package with `go test -list`, so a new Fuzz function runs without
# editing this script. CI runs this on every push; leave FUZZTIME at the
# default locally for the same coverage.
#
# Usage:
#   sh scripts/fuzz_smoke.sh               # 30s per target
#   FUZZTIME=5s sh scripts/fuzz_smoke.sh   # quicker local iteration
set -eu

FUZZTIME="${FUZZTIME:-30s}"

# One line per package with targets: "<import path> <target>...". The
# test binary prints its matching names, then go test prints "ok <pkg>".
TARGETS=$(go test -list '^Fuzz' ./... |
  awk '/^Fuzz/ { t = t " " $1 } /^ok/ { if (t != "") print $2 t; t = "" }')
if [ -z "$TARGETS" ]; then
  echo "fuzz-smoke: no fuzz targets found" >&2
  exit 1
fi

n=0
echo "$TARGETS" | {
  while read -r pkg targets; do
    for target in $targets; do
      echo "fuzz-smoke: $target ($pkg, $FUZZTIME)"
      go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
      n=$((n + 1))
    done
  done
  echo "fuzz-smoke: all $n targets clean"
}
