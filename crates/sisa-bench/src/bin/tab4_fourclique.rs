//! Table 4: 4-clique counting — the traditional (non-set) snippet, the
//! set-centric formulation executed in software and the SISA snippet.

use sisa_algorithms::setcentric::four_clique_count;
use sisa_bench::{
    default_limits, emit, format_table, full_mode, run_cell, Problem, Scheme, Workload,
};
use sisa_core::{parallel, SetEngine, SetGraph, SetGraphConfig, SisaConfig, SisaRuntime};
use sisa_graph::{datasets, orientation::degeneracy_order};

fn main() {
    let full = full_mode();
    let limits = default_limits(Problem::Kcc(4), full);
    let mut rows = Vec::new();
    for name in ["int-antCol5-d1", "econ-beacxc", "bio-SC-GT"] {
        let g = datasets::by_name(name).expect("stand-in").generate(1);
        let oriented = degeneracy_order(&g).orient(&g);
        let w = Workload::new(g, 32, limits);
        let non_set = run_cell(Problem::Kcc(4), Scheme::NonSet, &w).cycles;
        let set_sw = run_cell(Problem::Kcc(4), Scheme::SetBased, &w).cycles;
        let mut rt = SisaRuntime::new(SisaConfig::default());
        let sg = SetGraph::load(&mut rt, &oriented, &SetGraphConfig::default());
        rt.reset_stats();
        let sisa = four_clique_count(&mut rt, &sg, &limits);
        let sisa_cycles = parallel::schedule(&sisa.tasks, 32).makespan_cycles;
        rows.push(vec![
            name.to_string(),
            sisa.result.to_string(),
            format!("{:.3}", non_set as f64 / 1e6),
            format!("{:.3}", set_sw as f64 / 1e6),
            format!("{:.3}", sisa_cycles as f64 / 1e6),
        ]);
    }
    emit(
        "tab4_fourclique",
        &format!(
            "Table 4: counting all 4-cliques with the three code variants (32 threads).\n\n{}",
            format_table(
                &[
                    "graph",
                    "4-cliques found",
                    "non-set [Mcyc]",
                    "set-centric SW [Mcyc]",
                    "SISA [Mcyc]"
                ],
                &rows
            )
        ),
    );
}
