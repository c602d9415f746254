//! Determinism suite for the parallel compile pipeline.
//!
//! PR 5 parallelized the candidate-ordering search in the leaf compiler,
//! the block-local LC refinement in `Planned::build`, and the LC beam
//! scoring in the partitioner, and threaded reusable `SolverWorkspace`s
//! through the hot solve loops; the multilevel partitioner's proposal pass
//! and the recombine stage's whole-graph candidate solves later joined
//! them. All of that is engineered to be
//! *bit-identical* to the sequential code paths: winners are tie-broken by
//! candidate index, speculative LC chains are replayed sequentially under
//! the global budget, and a workspace carries no state between solves.
//! This suite pins those guarantees down:
//!
//! * compiled circuits (QASM dump) are byte-identical between the default
//!   parallel path and the forced-sequential path (`RAYON_NUM_THREADS=1`)
//!   across instances of all three bench families and the default corpus;
//! * back-to-back solves through one `SolverWorkspace` match one-shot
//!   solves bit for bit, including solves that grow their emitter pool in
//!   place and TRM-heavy orderings.

use rand::rngs::StdRng;
use rand::SeedableRng;

use epgs::Pipeline;
use epgs_circuit::qasm::to_qasm;
use epgs_circuit::simulate::verify_circuit;
use epgs_corpus::CorpusSpec;
use epgs_graph::{generators, Graph};
use epgs_solver::reverse::{solve_with_ordering, solve_with_ordering_in, SolveOptions};
use epgs_solver::SolverWorkspace;

/// Representative instances of the three bench families (`epgs_bench`
/// sweeps, trimmed to keep the double compile affordable). `lattice-60`
/// sits above the multilevel coarsening cutoff (48 vertices), so the
/// byte-identity check also covers the coarsen → initial-partition →
/// uncoarsen path, not just the sub-cutoff delegation to the flat engine.
fn family_instances() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for k in [3usize, 7, 15] {
        out.push((format!("lattice-{}", 4 * k), generators::lattice(4, k)));
    }
    for n in [10usize, 22] {
        out.push((format!("tree-{n}"), generators::tree(n, 2)));
    }
    for n in [10usize, 25] {
        let mut rng = StdRng::seed_from_u64(0xdac2025 ^ n as u64);
        out.push((
            format!("random-{n}"),
            generators::waxman(n, 0.5, 0.2, &mut rng),
        ));
    }
    out
}

/// Compiles every family instance and every default-corpus instance,
/// returning `(label, qasm)` pairs.
fn compile_all() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let pipeline = epgs_bench::bench_framework();
    for (label, g) in family_instances() {
        let compiled = pipeline
            .compile(&g)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        out.push((label, to_qasm(&compiled.circuit)));
    }
    let corpus_pipeline = Pipeline::new(epgs_serve::default_config());
    for inst in CorpusSpec::default_corpus().instances() {
        let compiled = corpus_pipeline
            .compile(&inst.graph)
            .unwrap_or_else(|e| panic!("{}: {e}", inst.id));
        out.push((format!("corpus-{}", inst.id), to_qasm(&compiled.circuit)));
    }
    out
}

/// Clears `RAYON_NUM_THREADS` on drop, so a failing assertion cannot leak
/// the forced-sequential mode into other tests of this process.
struct SequentialModeGuard;

impl Drop for SequentialModeGuard {
    fn drop(&mut self) {
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}

#[test]
fn parallel_and_sequential_pipelines_emit_byte_identical_qasm() {
    // Default path: parallel candidate search, parallel LC refinement,
    // parallel beam scoring (however many workers the host offers).
    let parallel = compile_all();
    // Forced-sequential path: the rayon shim honors RAYON_NUM_THREADS=1 by
    // running every stage inline on the calling thread.
    let sequential = {
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let _guard = SequentialModeGuard;
        compile_all()
    };

    assert_eq!(parallel.len(), sequential.len());
    assert!(parallel.len() >= 20, "corpus + families must all compile");
    for ((label_p, qasm_p), (label_s, qasm_s)) in parallel.iter().zip(&sequential) {
        assert_eq!(label_p, label_s);
        assert!(!qasm_p.is_empty(), "{label_p}: empty dump");
        assert_eq!(
            qasm_p, qasm_s,
            "{label_p}: parallel and sequential compilations diverged"
        );
    }
}

#[test]
fn workspace_reuse_matches_one_shot_solves_bit_for_bit() {
    // A mix of shapes and orderings, including TRM-heavy interleavings and
    // orderings that force pool growth — everything runs back to back
    // through ONE workspace and must match fresh one-shot solves exactly.
    let mut cases: Vec<(Graph, Vec<usize>, SolveOptions)> = Vec::new();
    let defaults = SolveOptions::default();
    cases.push((generators::path(8), (0..8).collect(), defaults.clone()));
    cases.push((
        generators::path(8),
        vec![0, 2, 4, 6, 1, 3, 5, 7],
        defaults.clone(),
    ));
    cases.push((
        generators::cycle(7),
        (0..7).rev().collect(),
        defaults.clone(),
    ));
    cases.push((generators::star(6), (0..6).collect(), defaults.clone()));
    cases.push((
        generators::lattice(3, 3),
        (0..9).collect(),
        defaults.clone(),
    ));
    cases.push((
        generators::complete(6),
        vec![5, 0, 4, 1, 3, 2],
        defaults.clone(),
    ));
    cases.push((
        generators::path(6),
        (0..6).collect(),
        SolveOptions {
            emitters: Some(3),
            ..defaults.clone()
        },
    ));
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..4 {
        let g = generators::erdos_renyi(8, 0.4, &mut rng);
        let ord = (0..8).collect();
        cases.push((g, ord, defaults.clone()));
    }

    let mut ws = SolverWorkspace::new();
    for (i, (g, ord, opts)) in cases.iter().enumerate() {
        let one_shot =
            solve_with_ordering(g, ord, opts).unwrap_or_else(|e| panic!("case {i}: {e}"));
        assert!(verify_circuit(&one_shot.circuit, g).unwrap(), "case {i}");
        let reused = solve_with_ordering_in(&mut ws, g, ord, opts)
            .unwrap_or_else(|e| panic!("case {i}: {e}"));
        assert_eq!(
            one_shot.emitters, reused.emitters,
            "case {i}: pool diverged"
        );
        assert_eq!(one_shot.ordering, reused.ordering, "case {i}");
        assert_eq!(
            one_shot.circuit, reused.circuit,
            "case {i}: circuits diverged"
        );
        assert_eq!(
            to_qasm(&one_shot.circuit),
            to_qasm(&reused.circuit),
            "case {i}: QASM diverged"
        );
    }

    // Error paths reset cleanly too: an invalid ordering must not poison
    // the workspace for the next solve.
    let g = generators::path(5);
    assert!(solve_with_ordering_in(&mut ws, &g, &[0, 0, 1, 2, 3], &defaults).is_err());
    let ok = solve_with_ordering_in(&mut ws, &g, &[4, 3, 2, 1, 0], &defaults).unwrap();
    let fresh = solve_with_ordering(&g, &[4, 3, 2, 1, 0], &defaults).unwrap();
    assert!(verify_circuit(&fresh.circuit, &g).unwrap());
    assert_eq!(ok.circuit, fresh.circuit);
}
