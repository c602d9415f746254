//! The canonical-form reference of the state check.
//!
//! This is `verify::is_graph_state_on` (and `is_graph_state`) as it was
//! before the check undid the preparation: it builds the expected tableau
//! (|G⟩ on the register, |0⟩ elsewhere) and compares canonical forms with
//! [`Tableau::same_state_as`]. Kept verbatim as the oracle the production
//! check must agree with on every tableau, valid or not.

use epgs_graph::Graph;
use epgs_stabilizer::Tableau;

/// True if `t` is exactly the graph state |G⟩ (including stabilizer signs).
pub fn is_graph_state(t: &Tableau, g: &Graph) -> bool {
    t.same_state_as(&Tableau::graph_state(g))
}

/// True if the sub-register `qubits` of `t` is exactly |G⟩ on those qubits
/// (in the order given) **and** every other qubit is disentangled in |0⟩.
///
/// This is the compiler's acceptance criterion: photons carry |G⟩, emitters
/// are back in |0⟩.
pub fn is_graph_state_on(t: &Tableau, g: &Graph, qubits: &[usize]) -> bool {
    let n = t.num_qubits();
    assert_eq!(
        g.vertex_count(),
        qubits.len(),
        "graph order must match the register size"
    );
    // Build the expected global state: |G⟩ on `qubits`, |0⟩ elsewhere.
    let mut global = Graph::new(n);
    for (i, &qi) in qubits.iter().enumerate() {
        for (j, &qj) in qubits.iter().enumerate() {
            if i < j && g.has_edge(i, j) {
                global.add_edge(qi, qj).expect("indices in range");
            }
        }
    }
    let mut expected = Tableau::graph_state(&global);
    // Non-register qubits must be |0⟩, not |+⟩: apply H to flip X_q → Z_q.
    let in_register: std::collections::BTreeSet<usize> = qubits.iter().copied().collect();
    for q in 0..n {
        if !in_register.contains(&q) {
            expected.h(q);
        }
    }
    t.same_state_as(&expected)
}
