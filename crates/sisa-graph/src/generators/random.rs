//! Randomised graph generators (Erdős–Rényi, Barabási–Albert, Watts–Strogatz,
//! Kronecker/R-MAT, near-complete).
//!
//! All generators are deterministic given their seed, which is required for
//! reproducible experiments: every harness fixes its seeds explicitly.

use crate::{CsrGraph, GraphBuilder, Vertex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Erdős–Rényi `G(n, p)`: every unordered pair is an edge with probability `p`.
///
/// Uses geometric skipping and a forward-only row cursor, so the cost is
/// O(n + m) rather than `n²` when `p` is small.
#[must_use]
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> CsrGraph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut builder = GraphBuilder::new(n);
    if n < 2 || p == 0.0 {
        return builder.build();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    if p >= 1.0 {
        for u in 0..n as Vertex {
            for v in (u + 1)..n as Vertex {
                builder.add_edge(u, v);
            }
        }
        return builder.build();
    }
    // Geometric skipping over the implicit list of all C(n,2) pairs, row by
    // row: row u holds the n - 1 - u pairs (u, u + 1..n) and starts at index
    // `row_start`. The kept indices only grow, so the row cursor only moves
    // forward and the whole walk is O(n + m).
    let n = n as u64;
    let total_pairs = n * (n - 1) / 2;
    let log_q = (1.0 - p).ln();
    let mut idx: i64 = -1;
    let (mut u, mut row_start) = (0u64, 0u64);
    loop {
        let r: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
        let skip = (r.ln() / log_q).floor() as i64 + 1;
        idx += skip;
        if idx as u64 >= total_pairs {
            break;
        }
        while idx as u64 >= row_start + (n - 1 - u) {
            row_start += n - 1 - u;
            u += 1;
        }
        let v = u + 1 + (idx as u64 - row_start);
        builder.add_edge(u as Vertex, v as Vertex);
    }
    builder.build()
}

/// Erdős–Rényi variant that targets an exact number of distinct edges
/// (`G(n, m)` model).
#[must_use]
pub(crate) fn erdos_renyi_with_edges(n: usize, m: usize, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    let m = m.min(max_edges);
    let mut chosen = std::collections::HashSet::with_capacity(m * 2);
    let mut builder = GraphBuilder::new(n);
    while chosen.len() < m {
        let u = rng.random_range(0..n as Vertex);
        let v = rng.random_range(0..n as Vertex);
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if chosen.insert(key) {
            builder.add_edge(key.0, key.1);
        }
    }
    builder.build()
}

/// Barabási–Albert preferential attachment: starts from a small clique and
/// attaches each new vertex to `m_attach` existing vertices chosen
/// proportionally to their degree. Produces the heavy-tailed degree
/// distributions typical of the paper's mining datasets.
#[must_use]
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> CsrGraph {
    let m_attach = m_attach.max(1);
    let seed_size = (m_attach + 1).min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    // Repeated-endpoints list: sampling an index uniformly from it is
    // equivalent to sampling a vertex proportionally to its degree.
    let mut endpoints: Vec<Vertex> = Vec::new();
    for u in 0..seed_size as Vertex {
        for v in (u + 1)..seed_size as Vertex {
            builder.add_edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in seed_size..n {
        // Distinct targets in draw order, so that the endpoints list, and
        // with it every later draw, is the same from run to run.
        let mut targets: Vec<Vertex> = Vec::with_capacity(m_attach);
        let mut guard = 0;
        while targets.len() < m_attach.min(v) && guard < 100 * m_attach {
            guard += 1;
            let t = if endpoints.is_empty() {
                rng.random_range(0..v as Vertex)
            } else {
                endpoints[rng.random_range(0..endpoints.len())]
            };
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            builder.add_edge(v as Vertex, t);
            endpoints.push(v as Vertex);
            endpoints.push(t);
        }
    }
    builder.build()
}

/// Watts–Strogatz small-world graph: a ring lattice where each vertex connects
/// to its `k` nearest neighbours, with each edge rewired with probability
/// `beta`.
#[must_use]
pub(crate) fn watts_strogatz(n: usize, k: usize, beta: f64, seed: u64) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    if n < 2 {
        return builder.build();
    }
    let half_k = (k / 2).max(1);
    for u in 0..n {
        for offset in 1..=half_k {
            let v = (u + offset) % n;
            if rng.random_bool(beta.clamp(0.0, 1.0)) {
                // Rewire to a uniformly random non-self endpoint.
                let mut w = rng.random_range(0..n);
                if w == u {
                    w = (w + 1) % n;
                }
                builder.add_edge(u as Vertex, w as Vertex);
            } else {
                builder.add_edge(u as Vertex, v as Vertex);
            }
        }
    }
    builder.build()
}

/// A dense "near-complete" graph: the complete graph on `n` vertices with each
/// edge kept independently with probability `density`. This models the very
/// dense small interaction / DIMACS graphs of the paper's Table 7
/// (e.g. `int-antCol*`, `dimacs-c500-9`).
#[must_use]
pub fn near_complete(n: usize, density: f64, seed: u64) -> CsrGraph {
    erdos_renyi(n, density, seed)
}

/// Configuration of the R-MAT / stochastic-Kronecker generator used for the
/// paper's scalability study ("we use Kronecker graphs and vary the number of
/// edges/vertex", §9.2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average number of edges per vertex.
    pub edge_factor: usize,
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of recursing into the top-right quadrant.
    pub b: f64,
    /// Probability of recursing into the bottom-left quadrant.
    pub c: f64,
}

impl RmatConfig {
    /// The Graph500-style default parameters `(a, b, c, d) = (0.57, 0.19, 0.19,
    /// 0.05)` at the given scale with 16 edges per vertex.
    #[must_use]
    pub fn default_scale(scale: u32) -> Self {
        Self {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }

    /// Number of vertices `2^scale`.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }
}

/// Generates an R-MAT (stochastic Kronecker) graph.
///
/// Each of the `n · edge_factor` arcs descends `scale` levels, one draw `r`
/// per level: `r < a` picks the top-left quadrant, `r < a + b` the top-right,
/// `r < a + b + c` the bottom-left and anything above the bottom-right. The
/// quadrant sets one bit of each endpoint, most significant first.
/// Self-loops are dropped.
#[must_use]
pub fn kronecker(cfg: &RmatConfig, seed: u64) -> CsrGraph {
    let n = cfg.num_vertices();
    let num_edges = n * cfg.edge_factor;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    let (a, ab, abc) = (cfg.a, cfg.a + cfg.b, cfg.a + cfg.b + cfg.c);
    for _ in 0..num_edges {
        let (mut u, mut v) = (0usize, 0usize);
        for bit in (0..cfg.scale).rev() {
            let r: f64 = rng.random();
            let (ge_a, ge_ab, ge_abc) = (r >= a, r >= ab, r >= abc);
            let du = ge_a & ge_ab;
            let dv = ge_a & (!ge_ab | ge_abc);
            u |= usize::from(du) << bit;
            v |= usize::from(dv) << bit;
        }
        if u != v {
            builder.add_edge(u as Vertex, v as Vertex);
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;

    /// Maps a linear index in `0..C(n,2)` to the corresponding unordered
    /// pair by walking the rows from 0: `erdos_renyi`'s mapping before it
    /// kept a row cursor.
    fn pair_from_index(idx: u64, n: u64) -> (u64, u64) {
        let mut u = 0u64;
        let mut remaining = idx;
        loop {
            let row = n - 1 - u;
            if remaining < row {
                return (u, u + 1 + remaining);
            }
            remaining -= row;
            u += 1;
        }
    }

    /// `erdos_renyi` as it stood with the per-edge row walk.
    fn erdos_renyi_row_walk(n: usize, p: f64, seed: u64) -> CsrGraph {
        let mut builder = GraphBuilder::new(n);
        if n < 2 || p == 0.0 {
            return builder.build();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let total_pairs = n as u64 * (n as u64 - 1) / 2;
        let log_q = (1.0 - p).ln();
        let mut idx: i64 = -1;
        loop {
            let r: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
            let skip = (r.ln() / log_q).floor() as i64 + 1;
            idx += skip;
            if idx as u64 >= total_pairs {
                break;
            }
            let (u, v) = pair_from_index(idx as u64, n as u64);
            builder.add_edge(u as Vertex, v as Vertex);
        }
        builder.build()
    }

    /// `kronecker` as it stood with the three-way quadrant branch and the
    /// interval bisection.
    fn kronecker_branches(cfg: &RmatConfig, seed: u64) -> CsrGraph {
        let n = cfg.num_vertices();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = GraphBuilder::new(n);
        for _ in 0..n * cfg.edge_factor {
            let (mut lo_u, mut hi_u) = (0usize, n);
            let (mut lo_v, mut hi_v) = (0usize, n);
            while hi_u - lo_u > 1 {
                let r: f64 = rng.random();
                let (du, dv) = if r < cfg.a {
                    (0, 0)
                } else if r < cfg.a + cfg.b {
                    (0, 1)
                } else if r < cfg.a + cfg.b + cfg.c {
                    (1, 0)
                } else {
                    (1, 1)
                };
                let mid_u = (lo_u + hi_u) / 2;
                let mid_v = (lo_v + hi_v) / 2;
                if du == 0 {
                    hi_u = mid_u;
                } else {
                    lo_u = mid_u;
                }
                if dv == 0 {
                    hi_v = mid_v;
                } else {
                    lo_v = mid_v;
                }
            }
            if lo_u != lo_v {
                builder.add_edge(lo_u as Vertex, lo_v as Vertex);
            }
        }
        builder.build()
    }

    #[test]
    fn erdos_renyi_matches_the_row_walk_bit_for_bit() {
        for n in [2, 3, 7, 64, 501] {
            for p in [1e-9, 1e-3, 0.05, 0.5, 0.9, 0.999, 1.0 - 1e-9] {
                for seed in [1, 2, 31] {
                    assert_eq!(
                        erdos_renyi(n, p, seed),
                        erdos_renyi_row_walk(n, p, seed),
                        "n {n}, p {p}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn kronecker_matches_the_quadrant_branches_bit_for_bit() {
        let skews = [
            (0.57, 0.19, 0.19),
            (0.9, 0.05, 0.04),
            (0.05, 0.05, 0.05),
            (0.1, 0.7, 0.1),
            (0.1, 0.1, 0.7),
            (0.25, 0.25, 0.25),
            (0.3, 0.5, 0.2),
            (0.0, 0.0, 0.0),
        ];
        for scale in 0..=12 {
            for &(a, b, c) in &skews {
                let cfg = RmatConfig {
                    scale,
                    edge_factor: 3,
                    a,
                    b,
                    c,
                };
                for seed in [5, 33] {
                    assert_eq!(
                        kronecker(&cfg, seed),
                        kronecker_branches(&cfg, seed),
                        "{cfg:?}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn erdos_renyi_edge_count_is_near_expectation() {
        let n = 400;
        let p = 0.05;
        let g = erdos_renyi(n, p, 13);
        let expected = (n * (n - 1) / 2) as f64 * p;
        let actual = g.num_edges() as f64;
        assert!(
            (actual - expected).abs() < 0.25 * expected,
            "expected ≈{expected}, got {actual}"
        );
    }

    #[test]
    fn erdos_renyi_extremes() {
        assert_eq!(erdos_renyi(50, 0.0, 1).num_edges(), 0);
        assert_eq!(erdos_renyi(10, 1.0, 1).num_edges(), 45);
        assert_eq!(erdos_renyi(1, 0.5, 1).num_edges(), 0);
    }

    #[test]
    fn erdos_renyi_with_edges_hits_target() {
        let g = erdos_renyi_with_edges(200, 1000, 5);
        assert_eq!(g.num_edges(), 1000);
        let capped = erdos_renyi_with_edges(5, 100, 5);
        assert_eq!(capped.num_edges(), 10);
    }

    #[test]
    fn pair_from_index_is_a_bijection_prefix() {
        let n = 7u64;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..(n * (n - 1) / 2) {
            let (u, v) = pair_from_index(idx, n);
            assert!(u < v && v < n);
            assert!(seen.insert((u, v)));
        }
    }

    #[test]
    fn barabasi_albert_is_heavy_tailed() {
        let g = barabasi_albert(2000, 4, 3);
        assert!(g.num_edges() >= 4 * 1900);
        let stats = DegreeStats::compute(&g);
        // Preferential attachment: hubs far above the mean.
        assert!(stats.skew > 5.0, "skew {}", stats.skew);
    }

    #[test]
    fn watts_strogatz_has_expected_edge_count() {
        let g = watts_strogatz(500, 6, 0.1, 9);
        // Each vertex contributes k/2 = 3 edges (some lost to dedup/rewiring).
        assert!(g.num_edges() > 1200 && g.num_edges() <= 1500);
    }

    #[test]
    fn kronecker_has_skewed_degrees() {
        let g = kronecker(&RmatConfig::default_scale(10), 99);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.num_edges() > 4000);
        let stats = DegreeStats::compute(&g);
        assert!(stats.skew > 3.0);
    }

    #[test]
    fn near_complete_density() {
        let g = near_complete(100, 0.9, 4);
        let max = 100 * 99 / 2;
        assert!(g.num_edges() as f64 > 0.8 * max as f64);
    }
}
