//! Backend-agnosticism tests: every set-centric algorithm must run generically
//! over [`SetEngine`] and produce the same answer on the simulated SISA
//! platform ([`SisaRuntime`]) and on the software CPU backend
//! ([`HostEngine`]) — the property that makes the benchmark harness's
//! engine-swapping comparisons meaningful.

use sisa_algorithms::setcentric::{
    approximate_degeneracy, bfs, four_clique_count, jarvis_patrick_clustering, k_clique_count,
    maximal_cliques, orient_by_degeneracy, star_pattern, subgraph_isomorphism_count,
    triangle_count, BfsMode, SimilarityMeasure,
};
use sisa_algorithms::SearchLimits;
use sisa_core::{
    FunctionalEngine, HostEngine, PartitionStrategy, SetEngine, SetGraph, SetGraphConfig,
    ShardedEngine, SisaConfig, SisaRuntime,
};
use sisa_graph::orientation::degeneracy_order;
use sisa_graph::{generators, CsrGraph};

fn test_graph() -> CsrGraph {
    generators::erdos_renyi(90, 0.08, 11)
}

#[test]
fn clique_kernels_agree_across_engines() {
    let g = test_graph();
    let limits = SearchLimits::unlimited();

    let mut sisa = SisaRuntime::with_defaults();
    let (sisa_oriented, _) = orient_by_degeneracy(&mut sisa, &g, &SetGraphConfig::default());
    let mut host = HostEngine::with_defaults();
    let (host_oriented, _) = orient_by_degeneracy(&mut host, &g, &SetGraphConfig::default());

    let tc_sisa = triangle_count(&mut sisa, &sisa_oriented, &limits);
    let tc_host = triangle_count(&mut host, &host_oriented, &limits);
    assert_eq!(tc_sisa.result, tc_host.result);
    assert!(tc_host.total_cycles() > 0);

    let kcc_sisa = k_clique_count(&mut sisa, &sisa_oriented, 4, &limits);
    let kcc_host = k_clique_count(&mut host, &host_oriented, 4, &limits);
    assert_eq!(kcc_sisa.result, kcc_host.result);

    let fc_sisa = four_clique_count(&mut sisa, &sisa_oriented, &limits);
    let fc_host = four_clique_count(&mut host, &host_oriented, &limits);
    assert_eq!(fc_sisa.result, fc_host.result);
    assert_eq!(fc_sisa.result, kcc_sisa.result);
}

#[test]
fn bron_kerbosch_agrees_across_engines() {
    let g = test_graph();
    let ordering = degeneracy_order(&g);
    let limits = SearchLimits::unlimited();

    let mut sisa = SisaRuntime::with_defaults();
    let sisa_sg = SetGraph::load(&mut sisa, &g, &SetGraphConfig::default());
    let mut host = HostEngine::with_defaults();
    let host_sg = SetGraph::load(&mut host, &g, &SetGraphConfig::default());

    let mc_sisa = maximal_cliques(&mut sisa, &sisa_sg, &ordering, &limits, true);
    let mc_host = maximal_cliques(&mut host, &host_sg, &ordering, &limits, true);
    assert_eq!(mc_sisa.result.cliques, mc_host.result.cliques);
    assert_eq!(mc_sisa.result.max_size, mc_host.result.max_size);
}

#[test]
fn traversal_kernels_agree_across_engines() {
    let g = test_graph();

    let mut sisa = SisaRuntime::with_defaults();
    let sisa_sg = SetGraph::load(&mut sisa, &g, &SetGraphConfig::default());
    let mut host = HostEngine::with_defaults();
    let host_sg = SetGraph::load(&mut host, &g, &SetGraphConfig::default());

    for mode in [BfsMode::TopDown, BfsMode::BottomUp] {
        let bfs_sisa = bfs(&mut sisa, &sisa_sg, 0, mode);
        let bfs_host = bfs(&mut host, &host_sg, 0, mode);
        assert_eq!(bfs_sisa.result, bfs_host.result, "{mode:?}");
    }

    let deg_sisa = approximate_degeneracy(&mut sisa, &sisa_sg, 0.5, &SearchLimits::unlimited());
    let deg_host = approximate_degeneracy(&mut host, &host_sg, 0.5, &SearchLimits::unlimited());
    assert_eq!(deg_sisa.result, deg_host.result);
}

#[test]
fn learning_and_matching_kernels_agree_across_engines() {
    let g = test_graph();
    let limits = SearchLimits::unlimited();

    let mut sisa = SisaRuntime::with_defaults();
    let sisa_sg = SetGraph::load(&mut sisa, &g, &SetGraphConfig::default());
    let mut host = HostEngine::with_defaults();
    let host_sg = SetGraph::load(&mut host, &g, &SetGraphConfig::default());

    let cl_sisa = jarvis_patrick_clustering(
        &mut sisa,
        &sisa_sg,
        SimilarityMeasure::Jaccard,
        0.2,
        &limits,
    );
    let cl_host = jarvis_patrick_clustering(
        &mut host,
        &host_sg,
        SimilarityMeasure::Jaccard,
        0.2,
        &limits,
    );
    assert_eq!(cl_sisa.result, cl_host.result);

    let si_sisa = subgraph_isomorphism_count(&mut sisa, &sisa_sg, &star_pattern(3), &limits);
    let si_host = subgraph_isomorphism_count(&mut host, &host_sg, &star_pattern(3), &limits);
    assert_eq!(si_sisa.result, si_host.result);
}

#[test]
fn algorithms_get_multi_cube_execution_for_free() {
    // The same generic algorithms run unchanged on a sharded multi-cube
    // engine and on the cost-free functional backend, and agree with the flat
    // SISA runtime on every result.
    let g = test_graph();
    let limits = SearchLimits::unlimited();
    let ordering = degeneracy_order(&g);

    let mut flat = SisaRuntime::with_defaults();
    let (flat_oriented, _) = orient_by_degeneracy(&mut flat, &g, &SetGraphConfig::default());
    let flat_sg = SetGraph::load(&mut flat, &g, &SetGraphConfig::default());
    let tc_flat = triangle_count(&mut flat, &flat_oriented, &limits);
    let kcc_flat = k_clique_count(&mut flat, &flat_oriented, 4, &limits);
    let mc_flat = maximal_cliques(&mut flat, &flat_sg, &ordering, &limits, false);

    let mut functional = FunctionalEngine::new();
    let (fn_oriented, _) = orient_by_degeneracy(&mut functional, &g, &SetGraphConfig::default());
    let tc_fn = triangle_count(&mut functional, &fn_oriented, &limits);
    assert_eq!(tc_fn.result, tc_flat.result);
    assert_eq!(tc_fn.total_cycles(), 0, "the functional engine is free");

    for strategy in PartitionStrategy::ALL {
        let mut sharded = ShardedEngine::sisa(4, strategy, SisaConfig::default());
        let (oriented, _) = orient_by_degeneracy(&mut sharded, &g, &SetGraphConfig::default());
        let sg = SetGraph::load(&mut sharded, &g, &SetGraphConfig::default());

        let tc = triangle_count(&mut sharded, &oriented, &limits);
        assert_eq!(tc.result, tc_flat.result, "{strategy:?}");
        let kcc = k_clique_count(&mut sharded, &oriented, 4, &limits);
        assert_eq!(kcc.result, kcc_flat.result, "{strategy:?}");
        let mc = maximal_cliques(&mut sharded, &sg, &ordering, &limits, false);
        assert_eq!(mc.result.count, mc_flat.result.count, "{strategy:?}");

        // A real multi-cube run moved operands across shards.
        assert!(sharded.traffic().cross_ops > 0, "{strategy:?}");
        assert_eq!(sharded.shard_count(), 4);
        assert!(sharded.schedule().imbalance() >= 1.0);
    }
}

#[test]
fn the_two_backends_price_the_same_run_differently() {
    // Same algorithm, same graph, same answer — but SISA's PIM cost models
    // and the CPU cache model must produce *different* cycle estimates, and
    // only CPU tasks carry stall/DRAM components.
    // Big enough that the CPU backend's working set spills out of L1 and
    // exposes memory stalls inside the measured tasks.
    let g = generators::erdos_renyi(1500, 0.04, 3);
    let limits = SearchLimits::unlimited();

    let mut sisa = SisaRuntime::with_defaults();
    let (sisa_oriented, _) = orient_by_degeneracy(&mut sisa, &g, &SetGraphConfig::default());
    sisa.reset_stats();
    let mut host = HostEngine::with_defaults();
    let (host_oriented, _) = orient_by_degeneracy(&mut host, &g, &SetGraphConfig::default());
    host.reset_stats();

    let tc_sisa = triangle_count(&mut sisa, &sisa_oriented, &limits);
    let tc_host = triangle_count(&mut host, &host_oriented, &limits);
    assert_eq!(tc_sisa.result, tc_host.result);
    assert_ne!(tc_sisa.total_cycles(), tc_host.total_cycles());
    assert!(tc_sisa.tasks.iter().all(|t| t.stall_cycles == 0));
    assert!(tc_host.tasks.iter().any(|t| t.stall_cycles > 0));
    assert_eq!(sisa.backend_name(), "sisa");
    assert_eq!(host.backend_name(), "cpu");
}
