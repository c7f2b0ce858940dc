#!/usr/bin/env bash
# Alternating parent/change pairs of the repo benchmark: the table a
# performance claim needs (choosing-metrics §8).
#
#   scripts/bench_pairs.sh <parent-ref> [--pairs 10] [--seconds 24] [--workload W]... [--trace] [--json FILE]
#
# "Change" is this checkout as it stands (uncommitted edits included);
# "parent" is <parent-ref>, unpacked with `git archive` into a temporary
# directory with its own CARGO_TARGET_DIR. Both sides are built once, then each pair runs
# every chosen workload (default: all four) on both binaries, on one seed per
# pair (pair i runs seed 10+i), the side that goes first flipping each pair.
# Each side runs from its own checkout, with the benchmark code of that
# checkout: a claimed gain may not edit benchmark/, so the two are the same.
#
# Prints, per workload and end-to-end metric: both medians, both quartile
# pairs, pairs won by each side (ties count for neither), a verdict, and per
# workload failed/attempted on each side. The verdict reads the metric's
# `bound` from BENCHMARK.json (simplicity-review, "Benchmark workloads"):
# `WORSE` when the change's median is worse than the parent's by more than the
# bound; `unresolved` when the parent's own runs spread wider than the bound
# (quartile distance over median) and not every run of the change beats every
# run of the parent; else `ok`. With at least ten pairs the verdict is also the
# exit status: 3 when any row reads `WORSE`. Below ten pairs a verdict resolves
# nothing (choosing-metrics §8), so it is only printed. Exit 1 means a run
# produced no result.
#
# --trace adds where the difference sits (choosing-metrics §6.6): after the
# pairs, one `--trace 1` run a side on seed 1 (the pinned seed) for each chosen
# workload, and every per-layer line that is non-zero on either side as
# `name parent → change unit (±%)`. The lines benchmark/pins.json pins are
# simulated or counted, not timed: they are marked `exact`, and `DIFFERS` if
# the two sides disagree.
#
# --json FILE also writes what is printed as one JSON document (the snapshot a
# PR commits as BENCH_PR<n>.json): host provenance, both refs, and per
# workload the failed/attempted counts and, per end-to-end metric, both
# medians and quartile pairs, pairs won, bound and verdict; with --trace, per
# workload the per-layer pairs with their `exact`/`DIFFERS` marks. Numbers
# carry the six significant digits of the printed table.
set -euo pipefail

usage() {
  sed -n '2,5p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[ $# -ge 1 ] || usage
parent_ref="$1"
shift
pairs=10
seconds=24
workloads=()
trace=0
json=""
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --trace) trace=1; shift ;;
    --json) json="$2"; shift 2 ;;
    *) echo "bench_pairs.sh: unknown argument $1" >&2; usage ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(mine-sparse mine-dense serve-hot serve-stream)

# A relative --json path is relative to where the script was called from.
case "$json" in "" | /*) ;; *) json="$PWD/$json" ;; esac
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
parent_commit="$(git rev-parse --verify "$parent_ref^{commit}")"

work="$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")"
trap 'rm -rf "$work"' EXIT

mkdir "$work/parent"
git archive "$parent_commit" | tar -x -C "$work/parent"

# Build both sides once; keep a copy of each binary so that a later build in
# either target directory cannot change what a pair runs.
build() { # <checkout> <target dir> <copy>
  (cd "$1" && CARGO_TARGET_DIR="$2" \
    cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2)
  cp "$2/release/sisa-benchmark" "$3"
}
build "$work/parent" "$work/target-parent" "$work/bench-parent"
build "$root" "${CARGO_TARGET_DIR:-$root/target}" "$work/bench-change"

samples="$work/samples.tsv" # workload  side  pair  metric  value
counts="$work/counts.tsv"   # workload  side  attempted  failed
: >"$samples"
: >"$counts"
status=0
worse=0

# One run of a side's binary from that side's checkout; the result on
# standard output.
bench() { # <side> <workload> <seed> <trace>
  local dir="$root"
  [ "$1" = parent ] && dir="$work/parent"
  (cd "$dir" && "$work/bench-$1" --workload "$2" --seed "$3" \
    --seconds "$seconds" --trace "$4" --out "$work/out-$1")
}

run_side() { # <side> <workload> <pair> <seed>
  local side="$1" w="$2" pair="$3" seed="$4" log
  log="$work/$side-$w-$pair.log"
  if ! bench "$side" "$w" "$seed" 0 >"$log"; then
    echo "bench_pairs.sh: $side $w seed $seed exited non-zero" >&2
  fi
  # The six end-to-end lines are `name value unit`; the last line is the JSON
  # result, of which only the two counts are read.
  awk -v w="$w" -v side="$side" -v pair="$pair" -v counts="$counts" '
    $1 ~ /^(setup_s|primary_ms|secondary_ms|cold_ms|throughput|peak_rss_mb)$/ && NF == 3 {
      print w "\t" side "\t" pair "\t" $1 "\t" $2
      seen++
    }
    /^\{"correct"/ {
      if (match($0, /"attempted":[0-9]+/)) attempted = substr($0, RSTART + 12, RLENGTH - 12)
      if (match($0, /"failed":[0-9]+/)) failed = substr($0, RSTART + 9, RLENGTH - 9)
      print w "\t" side "\t" attempted "\t" failed >>counts
      result = 1
    }
    END { exit !(seen == 6 && result) }
  ' "$log" >>"$samples" || {
    echo "bench_pairs.sh: $side $w seed $seed printed no complete result; see below" >&2
    tail -n 5 "$log" >&2
    status=1
  }
}

for pair in $(seq 1 "$pairs"); do
  seed=$((10 + pair))
  if [ $((pair % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
  for w in "${workloads[@]}"; do
    for side in $order; do
      echo "# pair $pair/$pairs, seed $seed, $w, $side" >&2
      run_side "$side" "$w" "$pair" "$seed"
    done
  done
done

change_commit="$(git rev-parse HEAD)"
uncommitted=false
git diff --quiet HEAD || uncommitted=true
echo "# parent $parent_commit vs change $change_commit$([ $uncommitted = false ] || echo ' + uncommitted edits')"
echo "# $pairs pairs, $seconds s a run, seeds 11..$((10 + pairs)); q1/q3 by linear interpolation; ties win for neither"
awk -F '\t' '
  function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
      t = a[i]
      for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
      a[j + 1] = t
    }
  }
  function quantile(a, n, p,    h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    if (lo >= n) return a[n]
    return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
  }
  # Leaves the runs of one side of one metric in runs[side], med[side],
  # q1[side], q3[side], min[side] and max[side].
  function summary(w, m, side,    n, i, a) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((w, m, side, i) in value) a[++n] = value[w, m, side, i]
    runs[side] = n
    if (n == 0) return sprintf("%38s", "-")
    sort(a, n)
    med[side] = quantile(a, n, 0.5); q1[side] = quantile(a, n, 0.25); q3[side] = quantile(a, n, 0.75)
    min[side] = a[1]; max[side] = a[n]
    return sprintf("%12.6g [%11.6g %11.6g]", med[side], q1[side], q3[side])
  }
  # The summary of one side as it was last computed, for the JSON document.
  function side_json(side) {
    if (!runs[side]) return "null"
    return sprintf("{\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g, \"runs\": %d}", med[side], q1[side], q3[side], runs[side])
  }
  function verdict(m,    lower, limit, clear) {
    if (!(m in bound) || !runs["parent"] || !runs["change"]) return "-"
    lower = (m != "throughput") # the one metric where higher is better
    limit = bound[m] * med["parent"]
    if ((lower ? med["change"] - med["parent"] : med["parent"] - med["change"]) > limit) return "WORSE"
    clear = lower ? max["change"] < min["parent"] : min["change"] > max["parent"]
    if (q3["parent"] - q1["parent"] > limit && !clear) return "unresolved"
    return "ok"
  }
  # An end-to-end entry of BENCHMARK.json spells "name" some lines before
  # its "bound"; per-layer entries have no bound.
  FILENAME == bench {
    if (match($0, /"name": *"[^"]+"/)) { name = substr($0, RSTART, RLENGTH - 1); sub(/.*"/, "", name) }
    if (match($0, /"bound": *[0-9.]+/)) { bound[name] = substr($0, RSTART, RLENGTH); sub(/.*: */, "", bound[name]) }
    next
  }
  FILENAME == counts { attempted[$1, $2] += $3; failed[$1, $2] += $4; next }
  {
    value[$1, $4, $2, $3] = $5 + 0
    if (!($1 in known)) { known[$1] = 1; order[++workloads] = $1 }
    if ($3 > pairs) pairs = $3
  }
  END {
    split("setup_s primary_ms secondary_ms cold_ms throughput peak_rss_mb", metrics, " ")
    for (k = 1; k <= workloads; k++) {
      w = order[k]
      printf "\n%s: failed/attempted parent %d/%d, change %d/%d\n", w, failed[w, "parent"], attempted[w, "parent"], failed[w, "change"], attempted[w, "change"]
      printf "%s    \"%s\": {\n      \"parent\": {\"failed\": %d, \"attempted\": %d},\n      \"change\": {\"failed\": %d, \"attempted\": %d},\n      \"metrics\": {\n", (k > 1 ? ",\n" : ""), w, failed[w, "parent"], attempted[w, "parent"], failed[w, "change"], attempted[w, "change"] >json
      printf "  %-13s %-38s %-38s %-24s %s\n", "metric", "parent median [q1 q3]", "change median [q1 q3]", "pairs won parent:change", "verdict (bound)"
      for (j = 1; j <= 6; j++) {
        m = metrics[j]
        won_parent = won_change = 0
        for (i = 1; i <= pairs; i++) {
          if (!((w, m, "parent", i) in value) || !((w, m, "change", i) in value)) continue
          p = value[w, m, "parent", i]; c = value[w, m, "change", i]
          if (m == "throughput") { t = p; p = c; c = t } # the one metric where higher is better
          if (c < p) won_change++; else if (p < c) won_parent++
        }
        line = sprintf("%s %s", summary(w, m, "parent"), summary(w, m, "change"))
        v = verdict(m)
        if (v == "WORSE") worse = 1
        printf "  %-13s %s %-24s %s (%s)\n", m, line, sprintf("%d:%d of %d", won_parent, won_change, pairs), v, (m in bound) ? bound[m] : "-"
        printf "%s        \"%s\": {\"parent\": %s, \"change\": %s, \"won_parent\": %d, \"won_change\": %d, \"bound\": %s, \"verdict\": \"%s\"}", (j > 1 ? ",\n" : ""), m, side_json("parent"), side_json("change"), won_parent, won_change, (m in bound) ? bound[m] : "null", v >json
      }
      printf "\n      }\n    }" >json
    }
    printf "\n" >json
    if (worse) exit 3
  }
' bench=BENCHMARK.json BENCHMARK.json counts="$counts" "$counts" json="$work/json-workloads" "$samples" ||
  { [ $? = 3 ] && worse=1 || status=1; }

if [ "$trace" = 1 ]; then
  # The names benchmark/pins.json pins.
  exact="$(sed -n 's/^ *"\([a-z-]*\.[a-z_.]*\)": .*/\1/p' benchmark/pins.json | sort -u | tr '\n' ' ')"
  for w in "${workloads[@]}"; do
    for side in parent change; do
      echo "# traced run, seed 1, $w, $side" >&2
      bench "$side" "$w" 1 1 >"$work/trace-$side-$w.log" || {
        echo "bench_pairs.sh: traced $side $w exited non-zero" >&2
        status=1
      }
    done
    printf '\n%s: per-layer lines of one traced run a side (seed 1, %s s), parent → change\n' "$w" "$seconds"
    # A per-layer line is `layer.name value unit`.
    awk -v exact="$exact" -v parent="$work/trace-parent-$w.log" -v json="$work/json-layers-$w" '
      BEGIN { n = split(exact, e, " "); for (i = 1; i <= n; i++) pinned[e[i]] = 1 }
      NF != 3 || $1 !~ /^[a-z-]+\.[a-z_.0-9]+$/ { next }
      !($1 in unit) { unit[$1] = $3; order[++lines] = $1 }
      FILENAME == parent { p[$1] = $2; next }
      { c[$1] = $2 }
      END {
        for (i = 1; i <= lines; i++) {
          m = order[i]
          if (p[m] + 0 == 0 && c[m] + 0 == 0) continue
          if (m in pinned) note = (p[m] == c[m]) ? "exact" : "exact, DIFFERS"
          else if (p[m] + 0 == 0) note = "from 0"
          else note = sprintf("%+.1f%%", (c[m] - p[m]) / p[m] * 100)
          printf "  %-40s %14.6g → %-14.6g %-8s (%s)\n", m, p[m], c[m], unit[m], note
          mark = (m in pinned) ? ((p[m] == c[m]) ? "\"exact\"" : "\"DIFFERS\"") : "null"
          printf "%s      \"%s\": {\"parent\": %.6g, \"change\": %.6g, \"unit\": \"%s\", \"mark\": %s}", (written++ ? ",\n" : ""), m, p[m], c[m], unit[m], mark >json
        }
        printf "\n" >json
        if (lines == 0) exit 1
      }
    ' "$work/trace-parent-$w.log" "$work/trace-change-$w.log" || {
      echo "bench_pairs.sh: no per-layer lines for $w" >&2
      status=1
    }
  done
fi

if [ -n "$json" ]; then
  # Free text from the machine goes into JSON strings without the two
  # characters that would need escaping.
  plain() { tr -d '"\\' | tr -s ' \t\n' ' ' | sed 's/^ //; s/ $//'; }
  {
    printf '{\n  "host": {"kernel": "%s", "cpu": "%s", "cpus": %d, "rustc": "%s"},\n' \
      "$(uname -srm | plain)" \
      "$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1 | plain)" \
      "$(getconf _NPROCESSORS_ONLN)" "$(rustc --version | plain)"
    printf '  "parent": "%s",\n  "change": "%s",\n  "uncommitted_edits": %s,\n' \
      "$parent_commit" "$change_commit" "$uncommitted"
    printf '  "pairs": %d,\n  "seconds": %s,\n  "first_seed": 11,\n  "complete": %s,\n' \
      "$pairs" "$seconds" "$([ "$status" = 0 ] && echo true || echo false)"
    printf '  "workloads": {\n'
    cat "$work/json-workloads"
    printf '  }'
    if [ "$trace" = 1 ]; then
      printf ',\n  "traced": {"seed": 1, "layers": {\n'
      sep=""
      for w in "${workloads[@]}"; do
        printf '%s    "%s": {\n' "$sep" "$w"
        cat "$work/json-layers-$w"
        printf '    }'
        sep=$',\n'
      done
      printf '\n  }}'
    fi
    printf '\n}\n'
  } >"$json"
  echo "# wrote $json" >&2
fi
if [ "$status" = 0 ] && [ "$worse" = 1 ] && [ "$pairs" -ge 10 ]; then
  echo "bench_pairs.sh: a row reads WORSE over $pairs pairs" >&2
  status=3
fi
exit "$status"
