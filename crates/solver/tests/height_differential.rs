//! Differential oracle for the one-pass height function.
//!
//! `height::height_function` keeps an incremental echelon basis of the cut
//! block while it walks the ordering; `height::cut_rank` ranks one cut from
//! scratch. Every prefix rank must agree, on random Erdős–Rényi graphs whose
//! vertex counts cross the 64- and 128-column word boundaries under random
//! orderings, and on the six benchmark graphs at n = 82–200 under the
//! orderings the solver uses.

use proptest::prelude::*;

use epgs_graph::{generators, height, Graph};
use epgs_solver::ordering;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The prefix oracle: `cut_rank` of every prefix of `ordering`.
fn prefix_cut_ranks(g: &Graph, ordering: &[usize]) -> Vec<usize> {
    (0..=ordering.len())
        .map(|j| height::cut_rank(g, &ordering[..j]))
        .collect()
}

fn assert_matches_oracle(g: &Graph, ordering: &[usize], label: &str) {
    assert_eq!(
        height::height_function(g, ordering),
        prefix_cut_ranks(g, ordering),
        "{label}: height function diverges from the prefix cut-rank oracle"
    );
}

/// The six scale_mix graphs of the benchmark (lattice, heavy-hex, tree,
/// two random-regular and one Waxman graph), built with the benchmark seed.
fn scale_mix_graphs() -> Vec<(&'static str, Graph)> {
    const BENCH_SEED: u64 = 0xdac2025;
    let rng = |n: usize| StdRng::seed_from_u64(BENCH_SEED ^ n as u64);
    vec![
        ("lattice-10x10", generators::lattice(10, 10)),
        ("heavy_hex-3x4", generators::heavy_hex(3, 4)),
        ("tree-127", generators::tree(127, 2)),
        ("rr3-100", generators::random_regular(100, 3, &mut rng(100))),
        ("rr3-200", generators::random_regular(200, 3, &mut rng(200))),
        (
            "waxman-100",
            generators::waxman(100, 0.5, 0.2, &mut rng(100)),
        ),
    ]
}

#[test]
fn height_matches_oracle_on_scale_mix_graphs() {
    for (label, g) in scale_mix_graphs() {
        for (name, order) in [
            ("natural", ordering::natural(&g)),
            ("bfs", ordering::bfs(&g)),
            ("degree-dfs", ordering::degree_dfs(&g)),
        ] {
            assert_matches_oracle(&g, &order, &format!("{label} {name}"));
        }
    }
}

#[test]
fn height_matches_oracle_at_word_boundaries() {
    let mut rng = StdRng::seed_from_u64(0x4E16);
    for n in [1, 2, 63, 64, 65, 127, 128, 129] {
        for p in [0.0, 0.05, 0.5, 1.0] {
            let g = generators::erdos_renyi(n, p, &mut rng);
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng);
            assert_matches_oracle(&g, &order, &format!("G({n}, {p})"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_graphs_and_orderings_match_oracle(
        n in 1usize..140,
        density in 1u32..8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, f64::from(density) / 16.0, &mut rng);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        prop_assert_eq!(
            height::height_function(&g, &order),
            prefix_cut_ranks(&g, &order)
        );
    }
}
