//! Figure 9: load-balancing analysis — per-thread stalled-time fractions
//! (9a) and set-size histograms for full vs. partial executions (9b).

use sisa_algorithms::setcentric::k_clique_count;
use sisa_algorithms::SearchLimits;
use sisa_bench::{emit, format_table, full_mode, run_cell, Problem, Scheme, Workload};
use sisa_core::{SetEngine, SetGraph, SetGraphConfig, SisaConfig, SisaRuntime};
use sisa_graph::{datasets, orientation::degeneracy_order};

fn main() {
    let full = full_mode();
    let limits = SearchLimits::patterns(if full { 50_000 } else { 10_000 });
    let g = datasets::by_name("int-antCol3-d1")
        .expect("stand-in")
        .generate(1);
    let oriented = degeneracy_order(&g).orient(&g);
    let w = Workload::new(g, 8, limits);

    let mut output = String::new();
    for k in [4usize, 5] {
        let mut rows = Vec::new();
        for scheme in Scheme::ALL {
            let report = run_cell(Problem::Kcc(k), scheme, &w).report;
            let stalls: Vec<String> = report
                .per_thread
                .iter()
                .map(|t| format!("{:.2}", t.stall_fraction()))
                .collect();
            rows.push(vec![
                format!("kcc-{k} {}", scheme.label()),
                stalls.join(" "),
            ]);
        }
        output.push_str(&format!(
            "\n{}",
            format_table(
                &["scheme", "per-thread stalled-time fraction (8 threads)"],
                &rows
            )
        ));
    }

    // Figure 9b: histograms of processed set sizes, full vs partial run.
    let mut hist_out = String::new();
    for (label, lim) in [
        ("full", SearchLimits::unlimited()),
        ("partial", SearchLimits::patterns(2_000)),
    ] {
        let mut rt = SisaRuntime::new(SisaConfig::with_set_size_tracking());
        let sg = SetGraph::load(&mut rt, &oriented, &SetGraphConfig::default());
        rt.reset_stats();
        let _ = k_clique_count(&mut rt, &sg, 4, &lim);
        let sizes = rt.processed_set_sizes();
        let mut bins = [0usize; 8];
        for &s in sizes {
            let bin = (usize::BITS - 1 - (s.max(1) as usize).leading_zeros()).min(7) as usize;
            bins[bin] += 1;
        }
        hist_out.push_str(&format!(
            "{label:8} execution: {} set operands, size histogram (log2 bins 1,2,4,...,>=128): {:?}\n",
            sizes.len(),
            bins
        ));
    }

    emit(
        "fig9_load_balance",
        &format!(
            "Figure 9a: per-thread stalled-time fractions (graph: int-antCol3-d1 stand-in).\n\
             Expected shape: SISA's stall fractions are the lowest of the three schemes.{output}\n\n\
             Figure 9b: set-size histograms, full vs partial execution (kcc-4).\n\
             Expected shape: both executions encounter the same large-set tail, showing the\n\
             cutoff does not artificially remove load imbalance.\n{hist_out}"
        ),
    );
}
