//! Differential suite for the weighted element search: the cached-letter
//! descent of [`Tableau::find_element_weighted_in`] and
//! [`Tableau::find_element_supported_on_in`] must return exactly the rows
//! the per-candidate reference descent returns.
//!
//! Tableaux are graph states scrambled by random Cliffords and row
//! products, on qubit counts that straddle the 64- and 128-bit word
//! boundaries; the restrict set, target, allowed set and per-qubit weights
//! are drawn at random, and one scratch is reused across every query so
//! stale buffers from a differently shaped query would show.

#[path = "reference/descent.rs"]
mod descent_reference;

use proptest::prelude::*;

use epgs_graph::generators;
use epgs_stabilizer::{ElementScratch, Tableau};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A graph state on `n` qubits with random edges, then `n` random
/// Cliffords and row products so generators carry X, Y and Z letters.
fn random_tableau(n: usize, rng: &mut StdRng) -> Tableau {
    let p = rng.gen_range(1..8) as f64 / 16.0;
    let mut t = Tableau::graph_state(&generators::erdos_renyi(n, p, rng));
    for _ in 0..n {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        match rng.gen_range(0..5) {
            0 => t.h(a),
            1 => t.s(a),
            2 if a != b => t.cnot(a, b),
            3 if a != b => t.cz(a, b),
            4 if a != b => t.row_mul(a, b),
            _ => {}
        }
    }
    t
}

/// One query: `(restrict, target, allowed, weights)`. Photons (`restrict`)
/// are a random prefix-sized subset; `allowed` is usually the complement
/// and sometimes a random subset that may overlap `restrict` or repeat.
fn random_query(n: usize, rng: &mut StdRng) -> (Vec<usize>, usize, Vec<usize>, Vec<usize>) {
    let photons = rng.gen_range(1..=n);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let restrict = order[..photons].to_vec();
    let target = restrict[rng.gen_range(0..photons)];
    let allowed = if rng.gen_bool(0.7) {
        order[photons..].to_vec()
    } else {
        (0..rng.gen_range(0..=n))
            .map(|_| rng.gen_range(0..n))
            .collect()
    };
    let weights = (0..n).map(|_| rng.gen_range(0..4)).collect();
    (restrict, target, allowed, weights)
}

/// Runs `cases` random queries at each size and returns how many found an
/// element whose weighted choice differs from the first valid one, i.e.
/// where the descent moved.
fn check_sizes(sizes: &[usize], cases: usize, seed: u64, scratch: &mut ElementScratch) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut moved = 0;
    for &n in sizes {
        for case in 0..cases {
            let t = random_tableau(n, &mut rng);
            let (restrict, target, allowed, weights) = random_query(n, &mut rng);
            let label = format!("n {n} case {case} target {target}");
            let weighted =
                t.find_element_weighted_in(&restrict, target, &allowed, |q| weights[q], scratch);
            assert_eq!(
                weighted,
                descent_reference::find_element_weighted(&t, &restrict, target, &allowed, |q| {
                    weights[q]
                }),
                "{label}: weighted search diverges"
            );
            let unit = t.find_element_supported_on_in(&restrict, target, &allowed, scratch);
            assert_eq!(
                unit,
                descent_reference::find_element_weighted(&t, &restrict, target, &allowed, |_| 1),
                "{label}: unit-weight search diverges"
            );
            let first = t.find_element_any_in(&restrict, target, &allowed, scratch);
            if weighted.is_some() && weighted != first {
                moved += 1;
            }
        }
    }
    moved
}

#[test]
fn cached_descent_matches_reference_across_word_boundaries() {
    let mut scratch = ElementScratch::new();
    let moved = check_sizes(
        &[1, 2, 5, 20, 63, 64, 65, 127, 128, 129],
        12,
        0xDE5C,
        &mut scratch,
    );
    assert!(moved > 0, "no query exercised the descent");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_queries_match_reference(n in 1usize..100, seed in any::<u64>()) {
        check_sizes(&[n], 2, seed, &mut ElementScratch::new());
    }
}
