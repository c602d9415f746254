//! Shared workloads and helpers for the evaluation harness.
//!
//! The `paper_eval` binary regenerates the paper's §V figures from a table
//! of named experiments over these fixed, seeded workloads (Fig. 9
//! families: 2D lattice for MBQC, trees for QRAM/tree codes, Waxman random
//! graphs for distributed QC). Sizes track the paper's sweeps: lattices
//! 12–60 qubits, trees 10–40, Waxman 10–35. Beyond the figures,
//! `corpus_run` drives the batch engine (`epgs::BatchCompiler`) over a
//! serializable `epgs_corpus` instance grid and emits per-pass JSON
//! reports, including the artifact cache's hit/miss counters.

use rand::rngs::StdRng;
use rand::SeedableRng;

use epgs::{FrameworkConfig, Pipeline};
use epgs_graph::{generators, Graph};
use epgs_hardware::HardwareModel;
use epgs_solver::BaselineOptions;

/// Benchmark RNG seed (fixed for reproducibility).
pub const SEED: u64 = 0xdac2025;

/// Lattice sweep: 4×k grids, 12–60 qubits (paper Fig. 10 a/d).
pub fn lattice_sweep() -> Vec<(usize, Graph)> {
    [3usize, 5, 7, 9, 11, 13, 15]
        .into_iter()
        .map(|k| (4 * k, generators::lattice(4, k)))
        .collect()
}

/// Tree sweep: complete binary trees truncated to n, 10–40 qubits
/// (paper Fig. 10 b/e).
pub fn tree_sweep() -> Vec<(usize, Graph)> {
    [10usize, 16, 22, 28, 34, 40]
        .into_iter()
        .map(|n| (n, generators::tree(n, 2)))
        .collect()
}

/// Waxman sweep: 10–35 qubits (paper Fig. 10 c/f), α = 0.5, β = 0.2.
pub fn waxman_sweep() -> Vec<(usize, Graph)> {
    [10usize, 15, 20, 25, 30, 35]
        .into_iter()
        .map(|n| {
            let mut rng = StdRng::seed_from_u64(SEED ^ n as u64);
            (n, generators::waxman(n, 0.5, 0.2, &mut rng))
        })
        .collect()
}

/// The three benchmark families with their display names.
pub fn all_families() -> Vec<(&'static str, Vec<(usize, Graph)>)> {
    vec![
        ("lattice", lattice_sweep()),
        ("tree", tree_sweep()),
        ("random", waxman_sweep()),
    ]
}

/// The pipeline used across the evaluation: the paper's g_max = 7, with the
/// LC budget (8; the paper uses 15) and search effort sized so a full sweep
/// runs in minutes (the paper instead allows a 20-minute MIP timeout per
/// graph).
pub fn bench_framework() -> Pipeline {
    Pipeline::new(FrameworkConfig {
        partition: epgs_partition::PartitionSpec {
            g_max: 7,
            lc_budget: 8,
            effort: 8,
            seed: SEED,
            ..Default::default()
        },
        orderings_per_subgraph: 8,
        flexible_slack: 2,
        ..FrameworkConfig::default()
    })
}

/// The pipeline for corpus batch runs: the serve daemon's
/// [`epgs_serve::default_config`], which is [`bench_framework`] with the
/// search effort trimmed so a 20+ instance corpus — see
/// `epgs_corpus::CorpusSpec::default_corpus` — compiles in seconds.
pub fn corpus_framework() -> Pipeline {
    Pipeline::new(epgs_serve::default_config())
}

/// Baseline configuration: GraphiQ-style alternate-target search.
pub fn bench_baseline() -> BaselineOptions {
    BaselineOptions {
        restarts: 8,
        lc_depth: 3,
        seed: SEED,
        emitters: None,
    }
}

/// The quantum-dot hardware model used throughout §V.
pub fn hw() -> HardwareModel {
    HardwareModel::quantum_dot()
}

/// Percentage reduction of `ours` relative to `base` (positive = better).
pub fn reduction_pct(base: f64, ours: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        100.0 * (base - ours) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_cover_paper_ranges() {
        let lat = lattice_sweep();
        assert_eq!(lat.first().unwrap().0, 12);
        assert_eq!(lat.last().unwrap().0, 60);
        let tree = tree_sweep();
        assert!(tree.first().unwrap().0 >= 10 && tree.last().unwrap().0 <= 40);
        let wax = waxman_sweep();
        assert!(wax.iter().all(|(n, g)| g.vertex_count() == *n));
    }

    #[test]
    fn workloads_are_reproducible() {
        let a = waxman_sweep();
        let b = waxman_sweep();
        for ((n1, g1), (n2, g2)) in a.iter().zip(&b) {
            assert_eq!(n1, n2);
            assert_eq!(g1, g2);
        }
    }

    #[test]
    fn reduction_pct_math() {
        assert_eq!(reduction_pct(10.0, 5.0), 50.0);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
        assert!(reduction_pct(10.0, 12.0) < 0.0);
    }
}
