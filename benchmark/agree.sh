#!/usr/bin/env bash
# Runs the whole suite twice on this commit and fails unless the two agree:
# no failed request in either, every end-to-end metric of the second within
# its bound of the first, every simulated (exact) figure identical.
#
#   benchmark/agree.sh [--seed <n>] [--seconds <s>]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

for side in a b; do
  "$here/run.sh" "$@" --trace --out "benchmark/out/agree-$side"
done

bin="${CARGO_TARGET_DIR:-$root/target}/release/sisa-benchmark"
status=0
for w in mine-sparse mine-dense serve-hot serve-stream; do
  for t in 0 1; do
    echo "== $w, trace $t"
    "$bin" compare "benchmark/out/agree-a/result-$w-trace$t.json" \
      "benchmark/out/agree-b/result-$w-trace$t.json" || status=1
  done
done
[ "$status" = 0 ] && echo "the two runs agree" || echo "the two runs DISAGREE"
exit "$status"
