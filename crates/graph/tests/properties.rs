//! Property-based tests for the graph algebra invariants the compiler relies on.

use proptest::prelude::*;

use epgs_graph::gf2::{BitMatrix, BitVec};
use epgs_graph::{generators, height, metrics, ops, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random graph on 2..=12 vertices given by an edge-presence bitmap.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=12).prop_flat_map(|n| {
        let pairs = n * (n - 1) / 2;
        proptest::collection::vec(any::<bool>(), pairs).prop_map(move |bits| {
            let mut g = Graph::new(n);
            let mut k = 0;
            for a in 0..n {
                for b in (a + 1)..n {
                    if bits[k] {
                        g.add_edge(a, b).unwrap();
                    }
                    k += 1;
                }
            }
            g
        })
    })
}

proptest! {
    #[test]
    fn lc_is_involutive(g in arb_graph(), v_seed in any::<u64>()) {
        let v = (v_seed as usize) % g.vertex_count();
        let mut h = g.clone();
        ops::local_complement(&mut h, v).unwrap();
        ops::local_complement(&mut h, v).unwrap();
        prop_assert_eq!(h, g);
    }

    #[test]
    fn lc_preserves_cut_rank_of_all_prefixes_up_to_bound(g in arb_graph()) {
        // Cut rank (entanglement) is invariant under local complementation:
        // LC maps the state by local unitaries, which cannot change any
        // bipartite entanglement entropy.
        let n = g.vertex_count();
        let ordering: Vec<usize> = (0..n).collect();
        let before = height::height_function(&g, &ordering);
        for v in 0..n {
            let mut h = g.clone();
            ops::local_complement(&mut h, v).unwrap();
            let after = height::height_function(&h, &ordering);
            prop_assert_eq!(&before, &after, "LC at {} changed the height function", v);
        }
    }

    #[test]
    fn pivot_is_involutive(g in arb_graph()) {
        let edges: Vec<(usize, usize)> = g.edges().collect();
        if let Some(&(a, b)) = edges.first() {
            let mut h = g.clone();
            ops::pivot(&mut h, a, b).unwrap();
            ops::pivot(&mut h, a, b).unwrap();
            prop_assert_eq!(h, g);
        }
    }

    #[test]
    fn pivot_identity_lc_aba_equals_lc_bab(g in arb_graph()) {
        // LC_a LC_b LC_a == LC_b LC_a LC_b on an edge (a,b): both define the
        // same pivot.
        let edges: Vec<(usize, usize)> = g.edges().collect();
        if let Some(&(a, b)) = edges.first() {
            let mut h1 = g.clone();
            ops::apply_lc_sequence(&mut h1, &[a, b, a]).unwrap();
            let mut h2 = g.clone();
            ops::apply_lc_sequence(&mut h2, &[b, a, b]).unwrap();
            prop_assert_eq!(h1, h2);
        }
    }

    #[test]
    fn measure_z_then_vertex_is_isolated(g in arb_graph(), v_seed in any::<u64>()) {
        let v = (v_seed as usize) % g.vertex_count();
        let mut h = g.clone();
        ops::measure_z(&mut h, v).unwrap();
        prop_assert_eq!(h.degree(v), 0);
        // Non-incident edges are untouched.
        for (a, b) in g.edges() {
            if a != v && b != v {
                prop_assert!(h.has_edge(a, b));
            }
        }
    }

    #[test]
    fn cut_rank_is_symmetric(g in arb_graph(), split in any::<u64>()) {
        let n = g.vertex_count();
        let a: Vec<usize> = (0..n).filter(|&v| (split >> (v % 64)) & 1 == 1).collect();
        let b: Vec<usize> = (0..n).filter(|&v| (split >> (v % 64)) & 1 == 0).collect();
        prop_assert_eq!(height::cut_rank(&g, &a), height::cut_rank(&g, &b));
    }

    #[test]
    fn cut_rank_bounded_by_cut_edges(g in arb_graph(), split in any::<u64>()) {
        let n = g.vertex_count();
        let a: Vec<usize> = (0..n).filter(|&v| (split >> (v % 64)) & 1 == 1).collect();
        let block: Vec<usize> = (0..n).map(|v| ((split >> (v % 64)) & 1) as usize).collect();
        prop_assert!(height::cut_rank(&g, &a) <= metrics::cut_edges(&g, &block));
    }

    #[test]
    fn rref_is_idempotent(rows in 1usize..8, cols in 1usize..8, seed in any::<u64>()) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = BitMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen::<bool>() {
                    m.set(r, c, true);
                }
            }
        }
        let mut once = m.clone();
        let p1 = once.rref();
        let mut twice = once.clone();
        let p2 = twice.rref();
        prop_assert_eq!(once, twice);
        prop_assert_eq!(p1, p2);
    }

    #[test]
    fn solve_agrees_with_mul(rows in 1usize..8, cols in 1usize..8, seed in any::<u64>()) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = BitMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen::<bool>() {
                    m.set(r, c, true);
                }
            }
        }
        // Make a consistent rhs from a random x.
        let x: Vec<bool> = (0..cols).map(|_| rng.gen()).collect();
        let b = m.mul_vec(&x);
        let sol = m.solve(&b).expect("consistent by construction");
        prop_assert_eq!(m.mul_vec(&sol), b);
    }

    #[test]
    fn truncate_rows_then_rref_matches_smaller_build(
        rows in 2usize..70,
        cols in 1usize..100,
        keep_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        // Reducing a truncated matrix must equal reducing a matrix built
        // with only the kept rows — truncation leaves no ghost state.
        let keep = 1 + (keep_seed as usize) % rows;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut big = BitMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                if rng.gen::<bool>() {
                    big.set(r, c, true);
                }
            }
        }
        let mut small = BitMatrix::zeros(keep, cols);
        for r in 0..keep {
            for c in 0..cols {
                small.set(r, c, big.get(r, c));
            }
        }
        big.truncate_rows(keep);
        prop_assert_eq!(&big, &small);
        let pa = big.rref();
        let pb = small.rref();
        prop_assert_eq!(pa, pb);
        prop_assert_eq!(big, small);
    }

    #[test]
    fn bitvec_copy_from_across_mismatched_capacities(
        long_len in 65usize..300,
        short_len in 0usize..64,
        seed in any::<u64>(),
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut long = BitVec::zeros(long_len);
        for i in 0..long_len {
            if rng.gen::<bool>() {
                long.set(i, true);
            }
        }
        let mut short = BitVec::zeros(short_len);
        if short_len > 0 {
            short.set(short_len - 1, true);
        }
        // Small buffer grows to take a large vector…
        let mut grown = short.clone();
        grown.copy_from(&long);
        prop_assert_eq!(&grown, &long);
        // …and a large buffer shrinks to a small one with no stale bits:
        // after the copy, ops that scan whole words must see only the
        // short vector's contents.
        let mut shrunk = long.clone();
        shrunk.copy_from(&short);
        prop_assert_eq!(&shrunk, &short);
        prop_assert_eq!(shrunk.count_ones(), short.count_ones());
        prop_assert_eq!(shrunk.is_zero(), short_len == 0);
        prop_assert_eq!(shrunk.first_one(), if short_len > 0 { Some(short_len - 1) } else { None });
    }

    #[test]
    fn random_tree_height_at_most_log_plus_one(seed in any::<u64>(), n in 3usize..25) {
        // Trees have small cut ranks along DFS-ish orders; sanity bound:
        // emitters never exceed n/2 + 1 for the natural ordering.
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_tree(n, &mut rng);
        prop_assert!(height::min_emitters_natural(&g) <= n / 2 + 1);
    }
}

#[test]
fn degenerate_matrices_reduce_without_pivots() {
    // Zero rows: nothing to reduce, full null space.
    let mut no_rows = BitMatrix::zeros(0, 5);
    assert_eq!(no_rows.rref(), Vec::<usize>::new());
    assert_eq!(no_rows.rank(), 0);
    assert_eq!(no_rows.null_space_from_reduced(&[], 5).rows(), 5);
    // Zero columns: no pivots possible regardless of row count, and the
    // word-level paths must tolerate the minimum one-word stride.
    let mut no_cols = BitMatrix::zeros(4, 0);
    assert_eq!(no_cols.rref(), Vec::<usize>::new());
    assert_eq!(no_cols.rank(), 0);
    assert_eq!(no_cols.null_space_from_reduced(&[], 0).rows(), 0);
    assert!(no_cols.row_is_zero(0));
    assert_eq!(no_cols.row_count_ones(3), 0);
    // Both: the empty matrix round-trips every query.
    let mut empty = BitMatrix::zeros(0, 0);
    assert_eq!(empty.rref(), Vec::<usize>::new());
    assert_eq!(empty.rank(), 0);
    // Truncating to zero rows then reducing is the zero-row case again.
    let mut m = BitMatrix::identity(3);
    m.truncate_rows(0);
    assert_eq!(m.rref(), Vec::<usize>::new());
    assert_eq!(m.rows(), 0);
}

#[test]
fn first_one_at_or_after_at_exact_word_boundaries() {
    let mut v = BitVec::zeros(256);
    for i in [63usize, 64, 127, 128, 191, 255] {
        v.set(i, true);
    }
    // Starting exactly on a set boundary bit finds it…
    for i in [63usize, 64, 127, 128, 191, 255] {
        assert_eq!(v.first_one_at_or_after(i), Some(i), "start {i}");
    }
    // …one past each boundary finds the next one across the word edge.
    assert_eq!(v.first_one_at_or_after(0), Some(63));
    assert_eq!(v.first_one_at_or_after(65), Some(127));
    assert_eq!(v.first_one_at_or_after(129), Some(191));
    assert_eq!(v.first_one_at_or_after(192), Some(255));
    // Start at or beyond the length is always empty, even with the last
    // bit set.
    assert_eq!(v.first_one_at_or_after(256), None);
    assert_eq!(v.first_one_at_or_after(1000), None);
    // A vector whose length is an exact word multiple with only the final
    // bit set: the masked first-word probe must not skip it.
    let mut w = BitVec::zeros(128);
    w.set(127, true);
    assert_eq!(w.first_one_at_or_after(127), Some(127));
    assert_eq!(w.first_one_at_or_after(64), Some(127));
    assert_eq!(w.first_one_at_or_after(128), None);
}
