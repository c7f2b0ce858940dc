#!/usr/bin/env bash
# Builds the benchmark in release and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one fresh process; the last line of standard output is
#       the JSON result (this is the form BENCHMARK.json's `command` takes).
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace] [--check]
#       every workload, each in a fresh process, end-to-end metrics with
#       tracing off; --trace adds the traced run (per-layer metrics, span
#       files); --check runs the traced run on the pinned seed and compares
#       every simulated figure with benchmark/pins.json, bit for bit.
#
# Results and span files land in benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

workload=""
seed=1
seconds=24
trace=""
check=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      # `--trace 0|1` (one workload) or a bare `--trace` (the whole suite).
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --check) check=1; shift ;;
    --out) out="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
out="${out:-benchmark/out}"

# One build directory for the repo and the benchmark, unless the caller
# chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/sisa-benchmark"

if [ -n "$workload" ]; then
  exec "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
    --trace "${trace:-0}" --out "$out"
fi

status=0
if [ "$check" = 1 ]; then
  seed="$(sed -n 's/^ *"seed": *\([0-9]*\).*/\1/p' benchmark/pins.json | head -n 1)"
fi
for w in mine-sparse mine-dense serve-hot serve-stream; do
  if [ "$check" = 1 ]; then
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
      --out "$out" --check benchmark/pins.json || status=1
    continue
  fi
  "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" || status=1
  if [ -n "$trace" ]; then
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 --out "$out" || status=1
  fi
done
exit "$status"
