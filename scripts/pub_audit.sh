#!/usr/bin/env bash
# Every `pub` item in crates/*/src that nothing outside its crate names.
#
#   scripts/pub_audit.sh
#
# An item (fn, struct, enum, trait, type, const, static) stays `pub` only when
# a caller outside its own crate spells its name: another crate's sources or
# tests, the crate's own tests/, the root src/, tests/ and examples/, a
# sisa-bench binary, or the benchmark's sources. Everything else is
# `pub(crate)`, where the compiler's dead-code lint sees it. The match is by
# name, not by path, so a method whose name some caller uses for anything
# passes; comment lines count for nothing. Items inside a top-level
# `#[cfg(test)] mod` are skipped.
#
# Prints `file:line: kind name` per item no caller names and exits 1 when one
# of them is not in KEEP_FOR_SIGNATURE below.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Types no caller spells that stay `pub` because a public signature names them
# (narrowing one is rustc's E0446 or its `private_interfaces` lint).
KEEP_FOR_SIGNATURE=(
  # sisa-algorithms
  ApplyReport            # StreamingMiner::apply
  ApproximateDegeneracy  # approximate_degeneracy
  BaselineMaximalCliques # maximal_cliques_baseline
  LinkPredictionOutcome  # link_prediction_accuracy
  MaximalCliques         # maximal_cliques
  PatternBudget          # SearchLimits::budget
  PatternGraph           # star_pattern, subgraph_isomorphism_count
  # sisa-bench
  Measurement            # run_cell
  # sisa-core
  DispatchOutcome        # Scu::dispatch_binary
  ExecutionChoice        # DispatchOutcome::choice
  ExecutionTarget        # ExecutionChoice::target
  InstructionEvent       # Collector::instruction
  LinkTraffic            # ShardedEngine::traffic
  ReplayReport           # Interpreter::replay
  ShardReport            # ShardedEngine::report
  ThreadReport           # RunReport::per_thread
  TraceEvent             # TraceSink::events
  TransferEvent          # Collector::transfer
  # sisa-graph
  DatasetSpec            # datasets::{all, by_name, small_suite, large_suite}
  EdgeLabels             # LabeledGraph::edge_labels
  GraphClass             # DatasetSpec::class
  # sisa-isa
  DecodeError            # SisaInstruction::decode
  OperandKind            # SisaOpcode::operands
  SetAlgorithm           # SisaOpcode::algorithm
  # sisa-pim
  LinkRoute              # LinkModel::route
  MemoryStats            # CpuThread::stats
  PnmConfig              # PimPlatform::pnm
  PumConfig              # PimPlatform::pum
  # sisa-service
  BucketCount            # HistogramSnapshot::buckets
  CacheCounters          # SisaService::cache_counters
  HistogramSnapshot      # MetricsSnapshot::histograms
  MetricsSnapshot        # SisaService::metrics_snapshot
  Rejection              # SisaService::submit
  ServiceClient          # SisaService::client
  ServiceReport          # SisaService::report
  TenantUsage            # SisaService::tenant_usage
  # sisa-sets
  BitIter                # DenseBitVector::iter
  KernelSelectionCounts  # kernel_selection_counts
)

# Identifiers on the non-comment lines of the given files, one per line.
identifiers() {
  cat "$@" | grep -vE '^[[:space:]]*//' | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u
}

# `line<TAB>kind<TAB>name` per `pub` item of one file, outside test modules.
pub_items() {
  awk '
    skipping { if (/^}/) skipping = 0; next }
    /^#\[cfg\(test\)\]/ { pending = 1; next }
    pending && /^(pub(\([a-z]+\))? )?mod .*\{$/ { pending = 0; skipping = 1; next }
    { pending = 0 }
    match($0, /^[[:space:]]*pub (const |unsafe |async )*(fn|struct|enum|trait|type|const|static|union) +[A-Za-z_][A-Za-z0-9_]*/) {
      n = split(substr($0, RSTART, RLENGTH), w, /[[:space:]]+/)
      print NR "\t" w[n - 1] "\t" w[n]
    }
  ' "$1"
}

all_rs() { find "$@" -name '*.rs' -type f 2>/dev/null | sort; }

found=0
failed=0
for crate in crates/*/; do
  crate="${crate%/}"
  mapfile -t callers < <(
    all_rs crates src tests examples benchmark/src | grep -v "^$crate/src/"
    all_rs "$crate/src/bin"
  )
  names="$(identifiers "${callers[@]}")"
  while IFS= read -r file; do
    while IFS=$'\t' read -r line kind name; do
      [ -n "$name" ] || continue
      grep -qxF "$name" <<<"$names" && continue
      found=$((found + 1))
      kept=""
      for keep in "${KEEP_FOR_SIGNATURE[@]}"; do
        [ "$keep" = "$name" ] && kept=" (kept for a signature)"
      done
      [ -n "$kept" ] || failed=$((failed + 1))
      echo "$file:$line: $kind $name$kept"
    done < <(pub_items "$file")
  done < <(all_rs "$crate/src" | grep -v "^$crate/src/bin/")
done

echo "# $found pub item(s) no caller outside their crate names; $failed not kept for a signature"
[ "$failed" -eq 0 ]
