//! Cross-crate oracle tests: the graph-level algebra, the stabilizer
//! semantics, and the circuit layer must agree wherever they overlap.

use epgs_circuit::{simulate, timeline, Circuit, Op, Qubit};
use epgs_graph::{generators, height, ops, Graph};
use epgs_hardware::HardwareModel;
use epgs_solver::cost::estimate_ordering;
use epgs_solver::reverse::{solve_with_ordering, SolveOptions};
use epgs_stabilizer::{verify, Tableau};

#[test]
fn compiled_circuit_emitter_count_respects_height_bound() {
    // The stabilizer-theoretic lower bound (cut rank) is never violated by
    // real circuits.
    let hw = HardwareModel::quantum_dot();
    for g in [
        generators::lattice(3, 3),
        generators::cycle(8),
        generators::tree(10, 2),
    ] {
        let ordering: Vec<usize> = (0..g.vertex_count()).collect();
        let bound = height::min_emitters(&g, &ordering);
        let solved = solve_with_ordering(&g, &ordering, &SolveOptions::default()).unwrap();
        assert!(simulate::verify_circuit(&solved.circuit, &g).unwrap());
        let peak = epgs_circuit::timeline::peak_emitter_usage(&hw, &solved.circuit);
        assert!(
            peak >= bound.min(solved.emitters),
            "peak usage {peak} below the entanglement bound {bound}"
        );
    }
}

#[test]
fn lc_equivalent_targets_compile_to_same_photon_count_different_gates() {
    // LC changes edges, not vertices: circuits for LC-equivalent graphs have
    // the same emissions but may differ in ee-CNOTs (that is the paper's
    // whole point).
    let g = generators::cycle(6);
    let mut h = g.clone();
    ops::local_complement(&mut h, 2).unwrap();
    let a = solve_with_ordering(&g, &[0, 1, 2, 3, 4, 5], &SolveOptions::default()).unwrap();
    let b = solve_with_ordering(&h, &[0, 1, 2, 3, 4, 5], &SolveOptions::default()).unwrap();
    assert!(simulate::verify_circuit(&a.circuit, &g).unwrap());
    assert!(simulate::verify_circuit(&b.circuit, &h).unwrap());
    assert_eq!(a.circuit.emission_count(), b.circuit.emission_count());
}

#[test]
fn cost_estimate_is_a_lower_bound_signal_for_real_trms() {
    // stalls counts the *necessary* emitter additions walking backward; the
    // real circuit's measurement count is at least stalls − pool slack.
    for g in [generators::path(8), generators::cycle(8)] {
        let ordering: Vec<usize> = (0..g.vertex_count()).collect();
        let est = estimate_ordering(&g, &ordering);
        let solved = solve_with_ordering(&g, &ordering, &SolveOptions::default()).unwrap();
        assert!(simulate::verify_circuit(&solved.circuit, &g).unwrap());
        assert!(
            solved.circuit.measurement_count() + solved.emitters >= est.stalls,
            "measurements {} + pool {} < stalls {}",
            solved.circuit.measurement_count(),
            solved.emitters,
            est.stalls
        );
    }
}

#[test]
fn manual_cz_circuit_agrees_with_solver_output_state() {
    // Build |G⟩ naively on photon wires of a tableau and compare with the
    // state the compiled circuit produces.
    let g = generators::lattice(2, 3);
    let solved = solve_with_ordering(&g, &[0, 1, 2, 3, 4, 5], &SolveOptions::default()).unwrap();
    assert!(simulate::verify_circuit(&solved.circuit, &g).unwrap());
    let mut outcomes = simulate::ConstantOutcomes(false);
    let t = simulate::run(&solved.circuit, &mut outcomes).unwrap();
    let photon_wires: Vec<usize> = (0..6).map(|p| solved.circuit.num_emitters() + p).collect();
    assert!(verify::is_graph_state_on(&t, &g, &photon_wires));
}

#[test]
fn timeline_duration_lower_bounded_by_gate_sum_over_parallelism() {
    let hw = HardwareModel::quantum_dot();
    let mut c = Circuit::new(2, 2);
    c.push(Op::Cz(0, 1));
    c.push(Op::Emit {
        emitter: 0,
        photon: 0,
    });
    c.push(Op::Emit {
        emitter: 1,
        photon: 1,
    });
    c.push(Op::H(Qubit::Photon(0)));
    let tl = timeline(&hw, &c);
    // Serial lower bound: CZ then one emission.
    assert!(tl.duration >= 1.1 - 1e-12);
    // Parallel upper bound: everything else overlaps.
    assert!(tl.duration <= 1.2 + 1e-12);
}

#[test]
fn graph_state_tableau_equals_cz_constructed_state_for_every_family() {
    for g in [
        generators::lattice(2, 4),
        generators::tree(9, 2),
        generators::repeater_graph_state(2),
        generators::complete(5),
    ] {
        let direct = Tableau::graph_state(&g);
        let mut built = Tableau::zero_state(g.vertex_count());
        for q in 0..g.vertex_count() {
            built.h(q);
        }
        for (a, b) in g.edges() {
            built.cz(a, b);
        }
        assert!(direct.same_state_as(&built));
    }
}

#[test]
fn isolated_vertices_become_plus_states() {
    // A graph with isolated vertices still compiles; isolated photons end in
    // |+⟩ (the 1-vertex graph state).
    let g = Graph::from_edges(4, [(0, 1)]).unwrap();
    let solved = solve_with_ordering(&g, &[0, 1, 2, 3], &SolveOptions::default()).unwrap();
    assert!(simulate::verify_circuit(&solved.circuit, &g).unwrap());
}
