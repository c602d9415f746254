//! Differential suite for the FM refinement kernel: the production
//! [`fm_partition`], which keeps one neighbors-per-block table current
//! through a whole refinement, must return exactly the `(block_of, cut)`
//! of the per-round reference it replaced (`reference/fm.rs`), which
//! recomputes block costs per vertex, rebuilds the table after every move
//! pass and recounts each cut over the graph.
//!
//! Graphs come from the five generator families of the invariants suite
//! (random-regular, hypercube, heavy-hex, Barabási–Albert, Watts–Strogatz)
//! and from dense Erdős–Rényi graphs after a few local complementations,
//! with `n` from 1 to 90. Capacities run from 2 to 9; the block count is
//! either the tight `⌈n / g_max⌉`, where most capacity is used and the
//! swap pass does the work, or one more, which leaves room for the move
//! pass to relocate vertices. Restarts run from 0 to 8 under any seed.

#[path = "reference/fm.rs"]
mod fm_reference;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use epgs_graph::{generators, ops, Graph};
use epgs_partition::fm::fm_partition;

/// A graph of family `family` (0–5) on at most `n` vertices, exactly `n`
/// wherever the family allows it (hypercubes round down to a power of two,
/// heavy-hex lattices take a shape picked by `n`).
fn family_graph(family: usize, n: usize, seed: u64) -> (&'static str, Graph) {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        0 => {
            // A d-regular graph needs d < n and n · d even.
            let d = match n {
                1 | 2 => n - 1,
                _ if n >= 4 && n.is_multiple_of(2) => 3,
                _ => 2,
            };
            ("random_regular", generators::random_regular(n, d, &mut rng))
        }
        1 => ("hypercube", generators::hypercube(n.ilog2())),
        2 => (
            "heavy_hex",
            generators::heavy_hex(1 + n % 3, 1 + (n / 3) % 4),
        ),
        3 if n >= 2 => (
            "barabasi_albert",
            generators::barabasi_albert(n, 3.min(n - 1), &mut rng),
        ),
        4 if n >= 3 => {
            let k = if n > 4 { 4 } else { 2 };
            (
                "watts_strogatz",
                generators::watts_strogatz(n, k, 0.2, &mut rng),
            )
        }
        3 | 4 => ("path", generators::path(n)),
        _ => {
            let p = rng.gen_range(3..8) as f64 / 10.0;
            let mut g = generators::erdos_renyi(n, p, &mut rng);
            let lc: Vec<usize> = (0..rng.gen_range(1..=4))
                .map(|_| rng.gen_range(0..n))
                .collect();
            ops::apply_lc_sequence(&mut g, &lc).expect("vertices in range");
            ("dense+lc", g)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The production search returns the reference's assignment and cut.
    #[test]
    fn fm_partition_matches_reference(
        family in 0usize..6,
        n in 1usize..=90,
        g_max in 2usize..=9,
        spare_block in any::<bool>(),
        restarts in 0usize..=8,
        seed in any::<u64>(),
    ) {
        let (name, g) = family_graph(family, n, seed);
        let num_blocks = g.vertex_count().div_ceil(g_max) + spare_block as usize;
        prop_assert_eq!(
            fm_partition(&g, num_blocks, g_max, restarts, seed),
            fm_reference::fm_partition(&g, num_blocks, g_max, restarts, seed),
            "{} on {} vertices, {} blocks of {}, {} restarts, seed {}",
            name, g.vertex_count(), num_blocks, g_max, restarts, seed
        );
    }
}
