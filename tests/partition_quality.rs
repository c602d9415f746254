//! Partition quality-gate and flat-path byte-identity suite.
//!
//! PR 7 made the multilevel coarsening partitioner the default scheme. Two
//! regressions could sneak past the unit tests: the flat path could drift
//! (it must stay byte-identical to the pre-multilevel pipeline, since it is
//! both the `PartitionScheme::Flat` escape hatch and the delegation target
//! for sub-cutoff instances), and the multilevel path could trade quality
//! for its speed. This suite pins both:
//!
//! * **Byte identity** — every bench-sweep and default-corpus instance is
//!   compiled under `PartitionScheme::Flat` and the FNV-1a hash of its QASM
//!   dump is compared against `tests/data/flat_qasm_fnv.txt`, a file pinned
//!   when the flat engine was the only engine. `lattice-52` and
//!   `lattice-60` were re-pinned once, when the LC beam began to partition
//!   only its best-ranked expansions above 48 vertices (under both
//!   schemes). Any other drift in the flat pipeline shows up as a hash
//!   mismatch here.
//! * **Quality gate** — the same instances are compiled under the default
//!   multilevel scheme, and per instance the cut, ee-CNOT count, and peak
//!   emitter count must be no worse than the flat compile. Instances at or
//!   below the coarsening cutoff (48 vertices) delegate to the flat engine
//!   inside the beam scorer, so everything except `lattice-52`/`lattice-60`
//!   must tie *exactly* — asserted as equality, which also re-pins the
//!   delegation contract end to end.
//! * **Direct-engine gates** — on instances far above the cutoff (where the
//!   full pipeline comparison would be too slow for a test), the engines are
//!   compared directly: the multilevel cut must be feasible and no worse
//!   than the flat cut.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use epgs::{Compiled, FrameworkConfig, Pipeline};
use epgs_bench::SEED;
use epgs_circuit::qasm::to_qasm;
use epgs_corpus::CorpusSpec;
use epgs_graph::{generators, Graph};
use epgs_partition::fm::fm_partition;
use epgs_partition::{multilevel_partition, MultilevelOptions, PartitionScheme};

/// FNV-1a, 64 bit — matches the hashes pinned in
/// `tests/data/flat_qasm_fnv.txt`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `config` pinned to an explicit partition scheme.
fn with_scheme(config: &FrameworkConfig, scheme: PartitionScheme) -> Pipeline {
    let mut config = config.clone();
    config.partition.scheme = scheme;
    Pipeline::new(config)
}

/// Debug builds drop the two most expensive flat compiles to keep the
/// suite affordable (the same trade `determinism.rs` makes); `lattice-52`
/// stays so an above-cutoff multilevel-vs-flat comparison is always live.
/// Release builds cover every pinned instance.
fn debug_trimmed(label: &str) -> bool {
    cfg!(debug_assertions) && matches!(label, "lattice-44" | "lattice-60")
}

/// The full `epgs_bench` sweeps, labelled `family-n`: lattices 12–60,
/// trees 10–40, Waxman 10–35.
fn sweep_instances() -> Vec<(String, Graph)> {
    epgs_bench::all_families()
        .into_iter()
        .flat_map(|(family, sweep)| {
            sweep
                .into_iter()
                .map(move |(n, g)| (format!("{family}-{n}"), g))
        })
        .collect()
}

/// Compiles every sweep instance (family config) and every default-corpus
/// instance (corpus config) under the given scheme.
fn compile_all(scheme: PartitionScheme) -> Vec<(String, Compiled)> {
    let mut out = Vec::new();
    let pipeline = with_scheme(epgs_bench::bench_framework().config(), scheme.clone());
    for (label, g) in sweep_instances() {
        if debug_trimmed(&label) {
            continue;
        }
        let compiled = pipeline
            .compile(&g)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        out.push((label, compiled));
    }
    let corpus_pipeline = with_scheme(&epgs_serve::default_config(), scheme);
    for inst in CorpusSpec::default_corpus().instances() {
        let compiled = corpus_pipeline
            .compile(&inst.graph)
            .unwrap_or_else(|e| panic!("{}: {e}", inst.id));
        out.push((format!("corpus-{}", inst.id), compiled));
    }
    out
}

/// Both tests below compare against the flat compile; share it across the
/// test binary instead of paying the expensive flat sweep twice.
fn flat_compiles() -> &'static Vec<(String, Compiled)> {
    static FLAT: OnceLock<Vec<(String, Compiled)>> = OnceLock::new();
    FLAT.get_or_init(|| compile_all(PartitionScheme::Flat))
}

/// Labels whose instances exceed the coarsening cutoff under the default
/// options — the only ones where the multilevel scheme may genuinely
/// diverge from (and must not lose to) the flat scheme. Above the same
/// 48 vertices the LC beam partitions only its best-ranked expansions
/// under either scheme, so each scheme scores about 50 graphs here, not
/// every expansion.
const ABOVE_CUTOFF: [&str; 2] = ["lattice-52", "lattice-60"];

#[test]
fn flat_scheme_qasm_matches_pinned_hashes() {
    let pinned: BTreeMap<String, u64> = {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/data/flat_qasm_fnv.txt"
        ))
        .expect("pinned hash file must exist");
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let (label, hash) = l.split_once(' ').expect("LABEL HASH lines");
                (
                    label.to_string(),
                    u64::from_str_radix(hash.trim(), 16).expect("hex hash"),
                )
            })
            .collect()
    };

    let mut seen = BTreeMap::new();
    for (label, compiled) in flat_compiles() {
        let hash = fnv1a64(to_qasm(&compiled.circuit).as_bytes());
        let expected = *pinned
            .get(label)
            .unwrap_or_else(|| panic!("{label}: missing from pinned hash file"));
        assert_eq!(
            hash, expected,
            "{label}: flat-scheme QASM drifted from the pinned pre-multilevel dump \
             (got {hash:016x}, pinned {expected:016x})"
        );
        seen.insert(label.clone(), hash);
    }
    let expected_count = pinned.keys().filter(|label| !debug_trimmed(label)).count();
    assert_eq!(
        seen.len(),
        expected_count,
        "instance set drifted from the pinned hash file: every pinned label must be compiled"
    );
}

#[test]
fn multilevel_quality_no_worse_than_flat() {
    let flat = flat_compiles();
    let ml = compile_all(PartitionScheme::Multilevel(MultilevelOptions::default()));
    assert_eq!(flat.len(), ml.len());
    assert!(flat.len() >= 30, "sweeps + corpus must all compile");

    for ((label, f), (label_ml, m)) in flat.iter().zip(&ml) {
        assert_eq!(label, label_ml);
        // Quality gate: never worse on the partition objective or the
        // headline circuit costs.
        assert!(
            m.partition.cut <= f.partition.cut,
            "{label}: multilevel cut {} worse than flat {}",
            m.partition.cut,
            f.partition.cut
        );
        assert!(
            m.metrics.ee_two_qubit_count <= f.metrics.ee_two_qubit_count,
            "{label}: multilevel ee-CNOTs {} worse than flat {}",
            m.metrics.ee_two_qubit_count,
            f.metrics.ee_two_qubit_count
        );
        assert!(
            m.metrics.peak_emitters <= f.metrics.peak_emitters,
            "{label}: multilevel peak emitters {} worse than flat {}",
            m.metrics.peak_emitters,
            f.metrics.peak_emitters
        );
        // Sub-cutoff instances delegate to the flat engine inside the beam
        // scorer, so the whole compile must tie byte for byte.
        if !ABOVE_CUTOFF.contains(&label.as_str()) {
            assert_eq!(
                to_qasm(&m.circuit),
                to_qasm(&f.circuit),
                "{label}: sub-cutoff instance must delegate to the flat engine exactly"
            );
        }
    }
}

#[test]
fn multilevel_direct_engine_no_worse_on_large_instances() {
    let instances = [
        ("path-200", generators::path(200)),
        ("lattice-10x50", generators::lattice(10, 50)),
    ];
    let (g_max, effort) = (7usize, 8usize);
    let opts = MultilevelOptions::default();
    for (label, g) in instances {
        let n = g.vertex_count();
        let num_blocks = n.div_ceil(g_max);
        let (ml_assign, ml_cut) = multilevel_partition(&g, num_blocks, g_max, effort, SEED, &opts);
        let (_, fm_cut) = fm_partition(&g, num_blocks, g_max, effort, SEED);

        assert_eq!(ml_assign.len(), n, "{label}: partial assignment");
        let mut sizes = vec![0usize; num_blocks];
        for &b in &ml_assign {
            assert!(b < num_blocks, "{label}: block out of range");
            sizes[b] += 1;
        }
        assert!(
            sizes.iter().all(|&s| s <= g_max),
            "{label}: block over g_max={g_max}: {sizes:?}"
        );
        assert!(
            ml_cut <= fm_cut,
            "{label}: multilevel cut {ml_cut} worse than flat {fm_cut}"
        );
    }
}
