//! Differential oracle harness for the GF(2) eliminations.
//!
//! `BitMatrix::rref_within_into` reduces through one of two paths, picked
//! from the shape alone: the transposed `rref_small` kernel for systems of
//! at most 64 rows and 128 columns, and the straight-line word loop for
//! everything else. This suite drives the dispatched path against the word
//! loop over adversarial shapes — exact word boundaries
//! (63/64/65/127/128/129), all-zero and full-rank matrices, rank-deficient
//! systems, and random instances via the proptest shim — and requires
//! bit-for-bit agreement: same reduced matrices, same pivot lists, same
//! solutions and null-space bases.

use proptest::prelude::*;

use epgs_graph::gf2::BitMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Row/col shapes that straddle the `rref_small` cutoff (64 rows / 128 cols)
/// and the word boundary in both dimensions.
const ADVERSARIAL_SHAPES: [(usize, usize); 12] = [
    (63, 63),
    (64, 64),
    (65, 65),
    (65, 64),
    (64, 129),
    (65, 128),
    (127, 127),
    (128, 128),
    (129, 129),
    (129, 63),
    (63, 129),
    (200, 150),
];

fn random_matrix(rows: usize, cols: usize, density_num: u32, rng: &mut StdRng) -> BitMatrix {
    let mut m = BitMatrix::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            if rng.gen::<u32>() % 8 < density_num {
                m.set(r, c, true);
            }
        }
    }
    m
}

/// Reduces `m` through the dispatch and through the word loop and asserts
/// bit-identity of the reduced matrix, the pivot list, every
/// augmented-column solution read, and the null-space basis.
fn assert_rref_paths_agree(m: &BitMatrix, lead_cols: usize, label: &str) {
    let mut dispatched = m.clone();
    let mut wordloop = m.clone();
    let mut piv_d = Vec::new();
    let mut piv_w = Vec::new();
    dispatched.rref_within_into(lead_cols, &mut piv_d);
    wordloop.rref_within_wordloop_into(lead_cols, &mut piv_w);
    assert_eq!(piv_d, piv_w, "{label}: pivot lists diverge");
    assert_eq!(dispatched, wordloop, "{label}: reduced matrices diverge");
    for j in 0..m.cols() - lead_cols {
        assert_eq!(
            dispatched.solution_from_reduced(&piv_d, lead_cols, j),
            wordloop.solution_from_reduced(&piv_w, lead_cols, j),
            "{label}: solution read {j} diverges"
        );
    }
    assert_eq!(
        dispatched.null_space_from_reduced(&piv_d, lead_cols),
        wordloop.null_space_from_reduced(&piv_w, lead_cols),
        "{label}: null-space bases diverge"
    );
}

#[test]
fn rref_dispatch_matches_wordloop_on_adversarial_shapes() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for &(rows, cols) in &ADVERSARIAL_SHAPES {
        // All-zero: no pivots on either path.
        assert_rref_paths_agree(
            &BitMatrix::zeros(rows, cols),
            cols,
            &format!("zero {rows}x{cols}"),
        );
        // Full-rank leading block: identity in the top-left corner plus
        // random trailing noise.
        let mut full = random_matrix(rows, cols, 3, &mut rng);
        for i in 0..rows.min(cols) {
            for c in 0..rows.min(cols) {
                full.set(i, c, i == c);
            }
        }
        assert_rref_paths_agree(&full, cols, &format!("full-rank {rows}x{cols}"));
        // Rank-deficient: random rows, then half the rows overwritten with
        // sums of earlier rows so the elimination hits dependent candidates.
        let mut deficient = random_matrix(rows, cols, 4, &mut rng);
        for r in rows / 2..rows {
            let a = rng.gen::<u64>() as usize % (rows / 2).max(1);
            let b = rng.gen::<u64>() as usize % (rows / 2).max(1);
            for c in 0..cols {
                deficient.set(r, c, deficient.get(a, c) != deficient.get(b, c));
            }
        }
        assert_rref_paths_agree(&deficient, cols, &format!("deficient {rows}x{cols}"));
        // Sparse random with carried RHS columns (lead < cols), the shape
        // the tableau's element search actually builds.
        let lead = cols - (cols / 8).min(3);
        let sparse = random_matrix(rows, cols, 1, &mut rng);
        assert_rref_paths_agree(&sparse, lead, &format!("sparse {rows}x{cols} lead {lead}"));
    }
}

#[test]
fn rref_dispatch_matches_wordloop_on_every_branch() {
    // `rref_within_into` picks its path from the shape alone; on one or two
    // shapes per branch the dispatched result must equal the word-loop
    // oracle's pivots, reduced matrix, and null basis.
    let mut rng = StdRng::seed_from_u64(0xA11);
    for &(rows, cols) in &[
        (40, 100),  // ≤ 64 rows, ≤ 128 cols → rref_small
        (100, 90),  // > 64 rows → word loop
        (129, 129), // > 64 rows → word loop
        (80, 200),  // > 64 rows → word loop
        (275, 275), // > 64 rows, stage 5's square rank test → word loop
        (40, 200),  // ≤ 64 rows, > 128 cols → word loop
        (64, 129),  // ≤ 64 rows, > 128 cols → word loop
    ] {
        let m = random_matrix(rows, cols, 3, &mut rng);
        let mut dispatched = m.clone();
        let mut wordloop = m.clone();
        let mut piv_d = Vec::new();
        let mut piv_w = Vec::new();
        dispatched.rref_within_into(cols, &mut piv_d);
        wordloop.rref_within_wordloop_into(cols, &mut piv_w);
        assert_eq!(piv_d, piv_w, "{rows}x{cols}: pivots diverge");
        assert_eq!(
            dispatched, wordloop,
            "{rows}x{cols}: reduced matrices diverge"
        );
        assert_eq!(
            dispatched.null_space_from_reduced(&piv_d, cols),
            wordloop.null_space_from_reduced(&piv_w, cols),
            "{rows}x{cols}: null bases diverge"
        );
    }
}

#[test]
fn rref_small_matches_wordloop_below_cutoff() {
    // The transposed small-system kernel claims to perform exactly the
    // word-loop's row operations; hold it to that over boundary shapes.
    let mut rng = StdRng::seed_from_u64(0x5A11);
    for &(rows, cols) in &[(1, 1), (63, 127), (64, 128), (40, 100), (64, 65)] {
        for density in [1u32, 4, 7] {
            let m = random_matrix(rows, cols, density, &mut rng);
            let mut small = m.clone();
            let mut word = m.clone();
            let mut piv_s = Vec::new();
            let mut piv_w = Vec::new();
            let lead = cols - 1;
            small.rref_within_into(lead, &mut piv_s); // rows ≤ 64, cols ≤ 128 → rref_small
            word.rref_within_wordloop_into(lead, &mut piv_w);
            assert_eq!(piv_s, piv_w, "{rows}x{cols} d{density}: pivots diverge");
            assert_eq!(small, word, "{rows}x{cols} d{density}: matrices diverge");
        }
    }
}

proptest! {
    #[test]
    fn random_rref_paths_agree(
        rows in 1usize..140,
        cols in 1usize..140,
        rhs in 0usize..3,
        density in 1u32..8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_matrix(rows, cols + rhs, density, &mut rng);
        let mut dispatched = m.clone();
        let mut wordloop = m.clone();
        let mut piv_d = Vec::new();
        let mut piv_w = Vec::new();
        dispatched.rref_within_into(cols, &mut piv_d);
        wordloop.rref_within_wordloop_into(cols, &mut piv_w);
        prop_assert_eq!(piv_d, piv_w);
        prop_assert_eq!(dispatched, wordloop);
    }
}
