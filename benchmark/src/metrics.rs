//! The metric tables: every name the benchmark prints, with its unit.
//!
//! `BENCHMARK.json` at the repo root lists the same names; a unit test keeps
//! the two in step. A run prints every end-to-end metric (`--trace 0`) or
//! every per-layer metric (`--trace 1`) on every workload; a per-layer line
//! of a layer the workload never enters reads 0.

use std::collections::BTreeMap;

/// One metric of the tables.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// The name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// Simulated or counted, not timed: two runs of one commit and one seed
    /// must agree exactly (`--check`, `agree.sh`).
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// What a user of the system sees. Role names, because every workload prints
/// every metric: README.md says what `primary`, `secondary` and `cold` are
/// on each workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("primary_ms", "ms", "lower", 0.25),
    e2e("secondary_ms", "ms", "lower", 0.25),
    e2e("cold_ms", "ms", "lower", 0.25),
    e2e("throughput", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

/// One line per layer quantity; layers are the crate and module names.
pub const PER_LAYER: &[MetricDef] = &[
    // sisa-sets: the host kernels under every engine.
    timed("sisa-sets.kernel_ns_per_op", "ns", "lower"),
    timed("sisa-sets.kernel_share", "ratio", "lower"),
    timed("sisa-sets.melem_per_s", "Melem/s", "higher"),
    exact("sisa-sets.select_merge", "count", "lower"),
    exact("sisa-sets.select_gallop", "count", "lower"),
    exact("sisa-sets.select_bitmap", "count", "lower"),
    // sisa-isa.
    timed("sisa-isa.encode_ns_per_instr", "ns", "lower"),
    timed("sisa-isa.decode_ns_per_instr", "ns", "lower"),
    // sisa-pim: the modelled components (simulated, exact) and the host
    // cost of asking the models.
    exact("sisa-pim.makespan_cycles", "cycles", "lower"),
    exact("sisa-pim.instructions", "count", "lower"),
    exact("sisa-pim.scu_cycles", "cycles", "lower"),
    exact("sisa-pim.pum_cycles", "cycles", "lower"),
    exact("sisa-pim.pnm_cycles", "cycles", "lower"),
    exact("sisa-pim.host_cycles", "cycles", "lower"),
    exact("sisa-pim.link_cycles", "cycles", "lower"),
    exact("sisa-pim.dep_stall_cycles", "cycles", "lower"),
    exact("sisa-pim.pum_ops", "count", "lower"),
    exact("sisa-pim.pnm_ops", "count", "lower"),
    exact("sisa-pim.smb_hit_ratio", "ratio", "higher"),
    exact("sisa-pim.energy_nj", "nJ", "lower"),
    exact("sisa-pim.ipc", "ratio", "higher"),
    timed("sisa-pim.price_ns_per_call", "ns", "lower"),
    // sisa-core: the simulator itself, by substitution and replay.
    timed("sisa-core.functional_ns_per_op", "ns", "lower"),
    timed("sisa-core.runtime_ns_per_instr", "ns", "lower"),
    timed("sisa-core.pricing_ns_per_instr", "ns", "lower"),
    timed("sisa-core.issue_ns_per_instr", "ns", "lower"),
    timed("sisa-core.scu_ns_per_instr", "ns", "lower"),
    timed("sisa-core.pipeline_ns_per_instr", "ns", "lower"),
    timed("sisa-core.scoreboard_ns_per_instr", "ns", "lower"),
    timed("sisa-core.stats_scope_ns", "ns", "lower"),
    timed("sisa-core.sharded_ns_per_instr", "ns", "lower"),
    timed("sisa-core.execute_ns_per_op", "ns", "lower"),
    timed("sisa-core.host_batch_ns_per_op", "ns", "lower"),
    timed("sisa-core.setgraph_load_ms", "ms", "lower"),
    timed("sisa-core.replay_ns_per_instr", "ns", "lower"),
    timed("sisa-core.collector_noop_share", "ratio", "lower"),
    timed("sisa-core.collector_chrome_share", "ratio", "lower"),
    // sisa-algorithms.
    timed("sisa-algorithms.control_ns_per_call", "ns", "lower"),
    exact("sisa-algorithms.engine_calls_per_job", "count", "lower"),
    timed("sisa-algorithms.miner_apply_us", "us", "lower"),
    timed("sisa-algorithms.miner_load_ms", "ms", "lower"),
    // sisa-graph.
    timed("sisa-graph.generate_ms", "ms", "lower"),
    timed("sisa-graph.orient_ms", "ms", "lower"),
    timed("sisa-graph.registry_mutate_us", "us", "lower"),
    timed("sisa-graph.registry_lease_ns", "ns", "lower"),
    // sisa-service, module by module.
    timed("sisa-service.protocol.parse_ns", "ns", "lower"),
    timed("sisa-service.protocol.frame_ns", "ns", "lower"),
    timed("sisa-service.admission.admit_ns", "ns", "lower"),
    timed("sisa-service.wfq.cycle_ns", "ns", "lower"),
    timed("sisa-service.cache.hit_ns", "ns", "lower"),
    timed("sisa-service.cache.miss_ns", "ns", "lower"),
    timed("sisa-service.cache.insert_ns", "ns", "lower"),
    timed("sisa-service.service.inproc_p50_us", "us", "lower"),
    timed("sisa-service.tcp.overhead_p50_us", "us", "lower"),
    timed("sisa-service.worker.queue_p50_us", "us", "lower"),
    timed("sisa-service.worker.execute_p50_us", "us", "lower"),
    timed("sisa-service.worker.span_p50_us", "us", "lower"),
    timed("sisa-service.cache.hit_ratio", "ratio", "higher"),
    timed("sisa-service.admission.rejected", "count", "lower"),
    timed("sisa-service.service.coalesced", "count", "higher"),
    timed("sisa-service.worker.graph_loads", "count", "lower"),
    timed("sisa-service.worker.stream_loads", "count", "lower"),
    timed("sisa-service.worker.stream_serves", "count", "higher"),
    // The harness itself, and tails too noisy on this box to carry a bound.
    timed("loadgen.lag_p95_us", "us", "lower"),
    timed("loadgen.sent", "count", "higher"),
    timed("loadgen.calib_drift", "ratio", "lower"),
    timed("trace.overhead_share", "ratio", "lower"),
    timed("budget.unattributed_share", "ratio", "lower"),
    timed("diag.job_p95_ms", "ms", "lower"),
    timed("diag.query_p95_ms", "ms", "lower"),
    timed("diag.query_p99_ms", "ms", "lower"),
    timed("diag.mutate_p90_ms", "ms", "lower"),
    timed("diag.peak_qps", "1/s", "higher"),
];

/// Metric values keyed by name.
#[derive(Clone, Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets `name`, which must be in one of the tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is in neither table"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`, 0 when the workload did not set it.
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object of the result line: every metric of `table`.
    #[must_use]
    pub fn json_object(&self, table: &[MetricDef]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|d| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    d.name,
                    json_number(self.get(d.name)),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// One `name value unit` line per metric of `table`.
    #[must_use]
    pub fn table_text(&self, table: &[MetricDef]) -> String {
        table
            .iter()
            .map(|d| {
                format!(
                    "{:<44} {:>18} {}\n",
                    d.name,
                    json_number(self.get(d.name)),
                    d.unit
                )
            })
            .collect()
    }
}

/// A finite JSON number with all the digits the measurement has. `f64`'s
/// `Display` is the shortest string that parses back to the same bits, so
/// exact values survive a round trip.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    fn listed(doc: &Content, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        let Some(Content::Seq(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no list {key}");
        };
        items
            .iter()
            .map(|item| {
                let text = |k: &str| match item.get(k) {
                    Some(Content::Str(s)) => s.clone(),
                    other => panic!("{key}.{k} is not a string: {other:?}"),
                };
                let bound = match item.get("bound") {
                    Some(Content::F64(b)) => Some(*b),
                    Some(Content::U64(b)) => Some(*b as f64),
                    _ => None,
                };
                (text("name"), text("unit"), text("better"), bound)
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc: Content = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let want = |table: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            table
                .iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.to_string(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), want(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), want(PER_LAYER));
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "bad name {}", d.name);
            assert!(ok_unit(d.unit), "bad unit {}", d.unit);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
            assert!(d.better == "lower" || d.better == "higher");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn result_object_lists_every_metric_of_the_table() {
        let mut v = Values::default();
        v.set("setup_s", 0.25);
        let json = v.json_object(END_TO_END);
        let doc: Content = serde_json::from_str(&json).expect("metrics object parses");
        for d in END_TO_END {
            assert!(doc.get(d.name).is_some(), "{} missing", d.name);
        }
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(73154142.0), "73154142");
    }
}
