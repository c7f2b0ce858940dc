#!/usr/bin/env bash
# The committed pair snapshots as one table.
#
#   scripts/bench_table.sh BENCH_PR*.json
#
# Reads each snapshot that scripts/bench_pairs.sh --json wrote and prints one
# row per snapshot x workload x end-to-end metric: the parent's and the
# change's median, the pairs the change won out of the pairs run, and the
# verdict against the metric's bound. Snapshots print in the order given,
# workloads and metrics in the order the snapshot stores them. Needs `jq`;
# exits non-zero when a file does not parse or lacks
# `workloads.<w>.metrics.<m>`.
set -euo pipefail

if [ $# -eq 0 ]; then
  sed -n '4p' "${BASH_SOURCE[0]}" | sed 's/^# *//' >&2
  exit 2
fi

{
  printf 'snapshot\tworkload\tmetric\tparent\tchange\twon/pairs\tverdict\n'
  for file in "$@"; do
    name="$(basename "$file" .json)"
    jq -r --arg name "${name#BENCH_}" '
      .pairs as $pairs
      | .workloads | to_entries[]
      | .key as $workload
      | .value.metrics | to_entries[]
      | [$name, $workload, .key, .value.parent.median, .value.change.median,
         "\(.value.won_change)/\($pairs)", .value.verdict]
      | if any(.[]; . == null) then error("missing field in \($workload)") else . end
      | @tsv' "$file"
  done
} | awk -F '\t' '{ printf "%-9s %-13s %-13s %12s %12s %10s  %s\n", $1, $2, $3, $4, $5, $6, $7 }'
