//! Robustness and failure-injection tests: malformed inputs, adversarial
//! configurations, and determinism guarantees across the public API surface.

use epgs::{FrameworkConfig, FrameworkError, Pipeline};
use epgs_circuit::simulate::{run, verify_circuit, ListedOutcomes};
use epgs_graph::{generators, Graph};
use epgs_hardware::HardwareModel;
use epgs_partition::PartitionSpec;
use epgs_solver::reverse::{solve_with_ordering, SolveOptions};
use epgs_solver::SolverError;

#[test]
fn framework_is_deterministic_end_to_end() {
    let g = generators::lattice(3, 4);
    let pipeline = Pipeline::new(FrameworkConfig::default());
    let a = pipeline.compile(&g).unwrap();
    let b = pipeline.compile(&g).unwrap();
    assert_eq!(a.circuit, b.circuit);
    assert_eq!(a.global_ordering, b.global_ordering);
    assert_eq!(a.partition.lc_sequence, b.partition.lc_sequence);
}

#[test]
fn absurdly_small_budget_still_produces_correct_circuits() -> Result<(), FrameworkError> {
    // A budget of 1 on a graph needing 4 emitters: the solver grows the
    // pool as physics demands; the circuit stays correct.
    let g = generators::lattice(4, 4);
    let pipeline = Pipeline::new(FrameworkConfig::default());
    let c = pipeline
        .partition(&g)
        .plan_leaves()?
        .schedule(1)
        .recombine()?
        .verify()?;
    assert!(verify_circuit(&c.circuit, &g).unwrap());
    Ok(())
}

#[test]
fn huge_budget_does_not_bloat_the_circuit_with_idle_emitter_gates() -> Result<(), FrameworkError> {
    let g = generators::path(6);
    let pipeline = Pipeline::new(FrameworkConfig::default());
    let c = pipeline
        .partition(&g)
        .plan_leaves()?
        .schedule(12)
        .recombine()?
        .verify()?;
    // A path needs one working emitter; idle pool wires must stay silent.
    assert_eq!(c.metrics.ee_two_qubit_count, 0);
    assert!(verify_circuit(&c.circuit, &g).unwrap());
    Ok(())
}

#[test]
fn one_vertex_and_empty_targets() {
    let pipeline = Pipeline::new(FrameworkConfig::default());
    let single = pipeline.compile(&Graph::new(1)).unwrap();
    assert_eq!(single.circuit.emission_count(), 1);
    let empty4 = pipeline.compile(&Graph::new(4)).unwrap();
    assert_eq!(empty4.metrics.ee_two_qubit_count, 0);
}

#[test]
fn adversarial_outcome_patterns_all_yield_target() {
    // Exhaustively check every outcome pattern for a circuit with several
    // measurements (stronger than the 6-pattern default verification).
    let g = generators::cycle(8);
    let solved = solve_with_ordering(
        &g,
        &[0, 2, 4, 6, 1, 3, 5, 7], // interleaved: forces TRMs
        &SolveOptions::default(),
    )
    .unwrap();
    let m = solved.circuit.measurement_count();
    assert!(m >= 2, "interleaved cycle ordering should need TRMs");
    let patterns = 1u64 << m.min(8);
    for p in 0..patterns {
        let bits: Vec<bool> = (0..m).map(|k| (p >> k) & 1 == 1).collect();
        let mut pol = ListedOutcomes(bits.clone());
        let t = run(&solved.circuit, &mut pol).unwrap();
        assert!(t.is_valid_state(), "pattern {bits:?} broke the state");
    }
    assert!(verify_circuit(&solved.circuit, &g).unwrap());
}

#[test]
fn degenerate_partition_configs_do_not_crash() {
    let g = generators::lattice(3, 3);
    for (g_max, lc, effort) in [(1usize, 0usize, 1usize), (2, 1, 1), (100, 0, 1)] {
        let pipeline = Pipeline::new(FrameworkConfig {
            partition: PartitionSpec {
                g_max,
                lc_budget: lc,
                effort,
                seed: 1,
                ..Default::default()
            },
            orderings_per_subgraph: 2,
            flexible_slack: 0,
            ..FrameworkConfig::default()
        });
        let c = pipeline
            .compile(&g)
            .unwrap_or_else(|e| panic!("g_max={g_max}: {e}"));
        assert!(verify_circuit(&c.circuit, &g).unwrap(), "g_max={g_max}");
    }
}

#[test]
fn solver_reports_invalid_orderings_not_panics() {
    let g = generators::path(4);
    for bad in [vec![], vec![0, 1, 2], vec![0, 1, 2, 4], vec![0, 0, 1, 2]] {
        assert!(matches!(
            solve_with_ordering(&g, &bad, &SolveOptions::default()),
            Err(SolverError::InvalidOrdering { .. })
        ));
    }
}

#[test]
fn all_hardware_presets_keep_relative_metric_ordering() {
    // The same circuit must have loss monotone in the platform's loss rate.
    let g = generators::tree(10, 2);
    let mut losses: Vec<(f64, f64)> = Vec::new();
    for hw in [
        HardwareModel::nv_center(),
        HardwareModel::siv_center(),
        HardwareModel::quantum_dot(),
        HardwareModel::rydberg(),
    ] {
        let pipeline = Pipeline::new(FrameworkConfig {
            hardware: hw.clone(),
            ..FrameworkConfig::default()
        });
        let c = pipeline.compile(&g).unwrap();
        losses.push((hw.photon_loss_per_tau, c.metrics.loss.mean_photon_loss));
    }
    // Not a strict theorem across different compiled circuits, but the two
    // extreme platforms must order correctly.
    let min = losses
        .iter()
        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
        .unwrap();
    let max = losses
        .iter()
        .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
        .unwrap();
    assert!(min.1 <= max.1 * 1.5 + 1e-9);
}

#[test]
fn dense_graph_torture() {
    // Complete bipartite-ish blow-up: every pair connected among 10 vertices
    // minus a perfect matching.
    let mut g = generators::complete(10);
    for v in (0..10).step_by(2) {
        g.remove_edge(v, v + 1).unwrap();
    }
    let pipeline = Pipeline::new(FrameworkConfig::default());
    let c = pipeline.compile(&g).unwrap();
    assert!(verify_circuit(&c.circuit, &g).unwrap());
}
