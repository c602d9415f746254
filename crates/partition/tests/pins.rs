//! Byte-identity pins for the partition engines.
//!
//! The FM kernel and the LC beam are performance-tuned in place; every
//! optimization must return exactly the assignment the straightforward
//! search did. These tests pin `(FNV of block_of, cut)` for the flat FM
//! search on seeded graphs (dense LC-transformed ones included), the same
//! pair for the multilevel V-cycle above its coarsening cutoff, and
//! `(lc_sequence, cut, FNV of block_of)` for the LC beam under the
//! evaluation harness's partition spec on three paper-sweep targets and,
//! above the ranking cutoff, on two scale_mix targets together with the
//! number of partitioner calls the ranked beam makes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use epgs_graph::{generators, ops, Graph};
use epgs_partition::fm::fm_partition;
use epgs_partition::lc_search::RANK_ABOVE;
use epgs_partition::{
    multilevel_partition, partition_with_lc, partition_with_lc_controlled, MultilevelOptions,
    PartitionSpec, SearchControl,
};

/// Seed of the evaluation harness (`epgs_bench::SEED`).
const SEED: u64 = 0xdac2025;

/// FNV-1a over the assignment, one little-endian `u64` per vertex.
fn fnv(assign: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in assign {
        for byte in (b as u64).to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The Waxman target `random-n` of the paper sweep.
fn waxman(n: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(SEED ^ n as u64);
    generators::waxman(n, 0.5, 0.2, &mut rng)
}

/// `g` after local complementation at each vertex of `seq` in turn.
fn lc(mut g: Graph, seq: &[usize]) -> Graph {
    ops::apply_lc_sequence(&mut g, seq).expect("vertices in range");
    g
}

/// The evaluation harness's partition spec (`epgs_bench::bench_framework`).
fn bench_spec() -> PartitionSpec {
    PartitionSpec {
        g_max: 7,
        lc_budget: 8,
        effort: 8,
        seed: SEED,
        ..Default::default()
    }
}

/// One pinned flat-FM case: label, graph, `[blocks, g_max, restarts]`,
/// seed, and the pinned `(FNV of block_of, cut)`.
type FmCase = (&'static str, Graph, [usize; 3], u64, (u64, usize));

#[test]
fn fm_partition_is_pinned() {
    let mut rng = StdRng::seed_from_u64(17);
    let rr3 = generators::random_regular(40, 3, &mut rng);
    let er = generators::erdos_renyi(24, 0.3, &mut rng);
    let er_lc = lc(generators::erdos_renyi(24, 0.3, &mut rng), &[1, 2, 5]);
    let lattice_lc = lc(generators::lattice(5, 5), &[6, 12, 18, 7]);
    let cases: Vec<FmCase> = vec![
        (
            "lattice-4x5",
            generators::lattice(4, 5),
            [3, 7, 8],
            1,
            (0xfd5538ef88410c47, 8),
        ),
        (
            "lattice-4x11",
            generators::lattice(4, 11),
            [7, 7, 8],
            2,
            (0x0d0de5d76a758c24, 24),
        ),
        (
            "tree-40",
            generators::tree(40, 2),
            [6, 7, 8],
            3,
            (0x74de2b1d018b7882, 8),
        ),
        (
            "random-30",
            waxman(30),
            [5, 7, 8],
            4,
            (0x172c0bb7b70702e0, 14),
        ),
        (
            "random-35+lc",
            lc(waxman(35), &[0, 3, 7]),
            [5, 7, 8],
            5,
            (0xe8215d6d19ccb5c1, 36),
        ),
        (
            "complete-12",
            generators::complete(12),
            [2, 6, 5],
            6,
            (0x4931d56d76115845, 36),
        ),
        (
            "lattice-5x5+lc",
            lattice_lc,
            [4, 7, 6],
            7,
            (0x73548be4f92cdfa6, 28),
        ),
        ("rr3-40", rr3, [6, 7, 8], 8, (0x10583147f3cd2cc2, 23)),
        ("er-24", er, [4, 6, 8], 9, (0x40c56da10be56ea5, 52)),
        ("er-24+lc", er_lc, [4, 6, 8], 10, (0x4c3a6fcf082b34e5, 65)),
        (
            "heavy-hex-2x2",
            generators::heavy_hex(2, 2),
            [5, 7, 8],
            11,
            (0x3ded2949f2ef3584, 8),
        ),
    ];
    for (label, g, [blocks, g_max, restarts], seed, pinned) in cases {
        let (assign, cut) = fm_partition(&g, blocks, g_max, restarts, seed);
        assert_eq!((fnv(&assign), cut), pinned, "{label}");
    }
}

/// The LC beam's scoring arguments under the bench spec: `⌈n/7⌉` blocks of
/// at most 7, `effort.max(2)` restarts.
const BEAM_ARGS: [usize; 2] = [7, 8];

/// One pinned V-cycle case: label, graph, `[g_max, restarts]` (blocks are
/// `⌈n/g_max⌉`), seed, and the pinned `(FNV of block_of, cut)`.
type MultilevelCase = (&'static str, Graph, [usize; 2], u64, (u64, usize));

#[test]
fn multilevel_partition_is_pinned() {
    let rng = |n: usize| StdRng::seed_from_u64(SEED ^ n as u64);
    let mut large = StdRng::seed_from_u64(0x1517);
    let cases: Vec<MultilevelCase> = vec![
        // The scale_mix targets, built as perfbench builds them.
        (
            "lattice-10x10",
            generators::lattice(10, 10),
            BEAM_ARGS,
            SEED,
            (0xcee7ff321cc9c2ab, 75),
        ),
        (
            "heavy_hex-3x4",
            generators::heavy_hex(3, 4),
            BEAM_ARGS,
            SEED,
            (0x3530275e2ca160a4, 30),
        ),
        (
            "tree-127",
            generators::tree(127, 2),
            BEAM_ARGS,
            SEED,
            (0x88069567dfa45364, 35),
        ),
        (
            "rr3-100",
            generators::random_regular(100, 3, &mut rng(100)),
            BEAM_ARGS,
            SEED,
            (0x1ac1639149144782, 65),
        ),
        (
            "rr3-200",
            generators::random_regular(200, 3, &mut rng(200)),
            BEAM_ARGS,
            SEED,
            (0xd80dc02111364f5e, 135),
        ),
        (
            "waxman-100",
            generators::waxman(100, 0.5, 0.2, &mut rng(100)),
            BEAM_ARGS,
            SEED,
            (0xd008e0e2f13a2563, 435),
        ),
        // Dense LC-transformed variants, as the beam scores them.
        (
            "lattice-10x10+lc",
            lc(
                generators::lattice(10, 10),
                &[11, 12, 22, 21, 33, 34, 44, 43, 55, 56, 66],
            ),
            BEAM_ARGS,
            SEED ^ 1,
            (0x7fcee6eae4e27466, 112),
        ),
        (
            "waxman-100+lc",
            lc(waxman(100), &[0, 3, 7, 12, 40, 41]),
            BEAM_ARGS,
            SEED ^ 2,
            (0xdb7d008e329923a1, 652),
        ),
        // At or above 512 vertices the move pass proposes in parallel; the
        // property suite's determinism tests use the same two graphs.
        (
            "path-600",
            generators::path(600),
            [7, 3],
            42,
            (0x7c3111b671b22ecf, 85),
        ),
        (
            "ws-520",
            generators::watts_strogatz(520, 4, 0.1, &mut large),
            [7, 3],
            42,
            (0xec71e490d4a7c9ef, 445),
        ),
    ];
    let opts = MultilevelOptions::default();
    for (label, g, [g_max, restarts], seed, pinned) in cases {
        let n = g.vertex_count();
        assert!(n > opts.coarsen_cutoff, "{label} must take the V-cycle");
        let (assign, cut) =
            multilevel_partition(&g, n.div_ceil(g_max), g_max, restarts, seed, &opts);
        assert_eq!((fnv(&assign), cut), pinned, "{label}");
    }
}

#[test]
fn lc_beam_is_pinned_under_the_bench_spec() {
    // (label, graph, pinned lc_sequence, pinned cut, pinned fnv).
    let cases: [(&str, Graph, &[usize], usize, u64); 3] = [
        (
            "lattice-44",
            generators::lattice(4, 11),
            &[43, 0],
            22,
            0xae553703fe8cfe00,
        ),
        (
            "tree-40",
            generators::tree(40, 2),
            &[9, 20],
            6,
            0x17246b510b41e164,
        ),
        (
            "random-30",
            waxman(30),
            &[25, 24, 0, 23, 6],
            11,
            0xdc380aab81636a62,
        ),
    ];
    let spec = bench_spec();
    for (label, g, seq, cut, hash) in cases {
        let p = partition_with_lc(&g, &spec);
        assert_eq!(
            (p.lc_sequence.as_slice(), p.cut, fnv(&p.block_of)),
            (seq, cut, hash),
            "{label}"
        );
    }
}

#[test]
fn duplicate_beam_states_are_scored_once() {
    // random-10 under the bench spec: the beam enumerates 185 candidates
    // over 8 depths, 61 of them expansions of a state that equals an
    // earlier state of the same depth (commuting LCs reach one graph).
    const ENUMERATED: usize = 185;
    let g = waxman(10);
    let spec = bench_spec();
    let calls = Arc::new(AtomicUsize::new(0));
    let hook_calls = Arc::clone(&calls);
    // Never injects: the hook only counts partitioner calls.
    let ctrl = SearchControl {
        deadline: None,
        multilevel_fault: Some(Arc::new(move || {
            hook_calls.fetch_add(1, Ordering::Relaxed);
            None
        })),
    };
    let (p, report) = partition_with_lc_controlled(&g, &spec, &ctrl);
    assert!(!report.degraded());
    // One base call plus one per distinct expansion.
    let score_calls = calls.load(Ordering::Relaxed) - 1;
    assert!(score_calls < ENUMERATED, "{score_calls} score calls");
    assert_eq!(score_calls, 124);
    assert_eq!(
        (p.lc_sequence.as_slice(), p.cut, fnv(&p.block_of)),
        (&[1usize][..], 1, 0x00c22296ea165d24)
    );
    assert_eq!(p, partition_with_lc(&g, &spec));
}

/// Beam width of the LC search (`lc_search::BEAM_WIDTH`).
const BEAM_WIDTH: usize = 6;

/// One pinned ranked-beam case: label, graph, and the pinned
/// `lc_sequence`, cut, FNV of `block_of` and partitioner-call count.
type RankedCase = (&'static str, Graph, &'static [usize], usize, u64, usize);

#[test]
fn ranked_lc_beam_is_pinned_under_the_bench_spec() {
    // Above `RANK_ABOVE` vertices each depth partitions only its
    // `BEAM_WIDTH` best-ranked expansions. The two scale_mix targets are
    // built as perfbench builds them; the counting hook never injects.
    let rr3 = generators::random_regular(100, 3, &mut StdRng::seed_from_u64(SEED ^ 100));
    let cases: [RankedCase; 2] = [
        (
            "lattice-10x10",
            generators::lattice(10, 10),
            &[8],
            72,
            0x46d705b06f3b5686,
            49,
        ),
        (
            "rr3-100",
            rr3,
            &[47, 38, 47, 38],
            62,
            0xf869b548ccf56769,
            49,
        ),
    ];
    let spec = bench_spec();
    for (label, g, seq, cut, hash, pinned_calls) in cases {
        assert!(g.vertex_count() > RANK_ABOVE, "{label} must be ranked");
        let calls = Arc::new(AtomicUsize::new(0));
        let hook_calls = Arc::clone(&calls);
        let ctrl = SearchControl {
            deadline: None,
            multilevel_fault: Some(Arc::new(move || {
                hook_calls.fetch_add(1, Ordering::Relaxed);
                None
            })),
        };
        let (p, report) = partition_with_lc_controlled(&g, &spec, &ctrl);
        assert!(!report.degraded(), "{label}");
        let calls = calls.load(Ordering::Relaxed);
        assert!(
            calls <= 1 + spec.lc_budget * BEAM_WIDTH,
            "{label}: {calls} partitioner calls"
        );
        assert_eq!(
            (p.lc_sequence.as_slice(), p.cut, fnv(&p.block_of), calls),
            (seq, cut, hash, pinned_calls),
            "{label}"
        );
    }
}
