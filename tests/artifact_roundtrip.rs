//! Property test pinning the on-disk artifact codec: serializing a
//! [`epgs::Planned`] and deserializing it back must reproduce the exact
//! bit pattern — re-encoding the decoded artifact yields the identical
//! byte string — across all five generator families of the batch corpus.
//!
//! Bit-identity is what makes the store trustworthy: every float crosses
//! the codec as its `to_bits()` hex image, so a disk round trip can never
//! perturb a duration, loss figure, or emission time by even one ULP.

use proptest::prelude::*;

use epgs::{artifact, config_fingerprint, CacheKey, FrameworkConfig, PartitionSpec, Pipeline};
use epgs_graph::canon::canonical_hash;
use epgs_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn quick_pipeline() -> Pipeline {
    Pipeline::new(FrameworkConfig {
        partition: PartitionSpec {
            g_max: 5,
            lc_budget: 3,
            effort: 4,
            ..Default::default()
        },
        orderings_per_subgraph: 4,
        ..Default::default()
    })
}

/// One random small instance of the chosen corpus family.
fn family_graph(family: usize, size_sel: u8, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        0 => generators::random_regular(8 + 2 * (size_sel as usize % 3), 3, &mut rng),
        1 => generators::hypercube(2 + (size_sel as u32 % 2)),
        2 => generators::heavy_hex(1, 1 + (size_sel as usize % 2)),
        3 => generators::barabasi_albert(8 + (size_sel as usize % 4), 2, &mut rng),
        _ => generators::watts_strogatz(8 + 2 * (size_sel as usize % 3), 4, 0.2, &mut rng),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn planned_artifacts_round_trip_bit_identically(
        family in 0usize..5,
        size_sel in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let pipeline = quick_pipeline();
        let g = family_graph(family, size_sel, seed);
        let planned = pipeline.partition(&g).plan_leaves().expect("plans");
        let key = CacheKey {
            canonical: canonical_hash(&g),
            config: config_fingerprint(pipeline.config()),
        };
        let text = artifact::encode(&planned, key);
        let decoded = artifact::decode(&text, key, &pipeline).expect("decodes");
        // Bit-identity: the decoded artifact re-encodes to the same bytes.
        prop_assert_eq!(artifact::encode(&decoded, key), text);
        // And the decoded prefix is a drop-in replacement for the cheap
        // suffix stages.
        let a = planned.schedule(2).recombine().expect("recombine").verify().expect("verify");
        let b = decoded.schedule(2).recombine().expect("recombine").verify().expect("verify");
        prop_assert_eq!(a.circuit, b.circuit);
    }
}
