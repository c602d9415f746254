//! State-equality oracles used throughout the workspace's tests and the
//! compiler's final verification pass.

use epgs_graph::Graph;

use crate::tableau::Tableau;

/// True if `t` is exactly the graph state |G⟩ (including stabilizer signs).
///
/// # Examples
///
/// ```
/// use epgs_graph::generators;
/// use epgs_stabilizer::{verify, Tableau};
///
/// let g = generators::path(3);
/// let t = Tableau::graph_state(&g);
/// assert!(verify::is_graph_state(&t, &g));
/// ```
pub fn is_graph_state(t: &Tableau, g: &Graph) -> bool {
    let n = g.vertex_count();
    t.num_qubits() == n && is_graph_state_on(t, g, &(0..n).collect::<Vec<_>>())
}

/// True if the sub-register `qubits` of `t` is exactly |G⟩ on those qubits
/// (in the order given) **and** every other qubit is disentangled in |0⟩.
///
/// This is the compiler's acceptance criterion: photons carry |G⟩, emitters
/// are back in |0⟩.
///
/// The check undoes the preparation instead of comparing canonical forms:
/// |G⟩ ⊗ |0⟩ is `Π CZ_edges · H_register` applied to |0…0⟩, and every one
/// of those gates is self-inverse, so a copy of `t` with the CZs and then
/// the Hadamards applied is |0…0⟩ exactly when `t` is the expected state
/// ([`Tableau::is_zero_state`]).
pub fn is_graph_state_on(t: &Tableau, g: &Graph, qubits: &[usize]) -> bool {
    assert_eq!(
        g.vertex_count(),
        qubits.len(),
        "graph order must match the register size"
    );
    let mut undone = t.clone();
    for (i, j) in g.edges() {
        undone.cz(qubits[i], qubits[j]);
    }
    for &q in qubits {
        undone.h(q);
    }
    undone.is_zero_state()
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::generators;

    #[test]
    fn graph_state_detected() {
        let g = generators::cycle(4);
        assert!(is_graph_state(&Tableau::graph_state(&g), &g));
        assert!(!is_graph_state(
            &Tableau::graph_state(&generators::path(4)),
            &g
        ));
    }

    #[test]
    fn sign_flip_rejected() {
        let g = generators::path(3);
        let mut t = Tableau::graph_state(&g);
        t.pz(1);
        assert!(!is_graph_state(&t, &g));
    }

    #[test]
    fn embedded_register_detected() {
        // 2 photons in a Bell-graph + 1 emitter in |0⟩ on qubit index 1.
        let g = generators::path(2);
        let mut t = Tableau::zero_state(3);
        t.h(0);
        t.h(2);
        t.cz(0, 2);
        assert!(is_graph_state_on(&t, &g, &[0, 2]));
        assert!(!is_graph_state_on(&t, &g, &[0, 1]));
    }

    #[test]
    fn leftover_emitter_in_plus_rejected() {
        let g = generators::path(2);
        let mut t = Tableau::zero_state(3);
        t.h(0);
        t.h(2);
        t.cz(0, 2);
        t.h(1); // emitter left in |+⟩ instead of |0⟩
        assert!(!is_graph_state_on(&t, &g, &[0, 2]));
    }

    #[test]
    fn register_order_matters() {
        // Path 0-1-2 embedded reversed: graph edges must follow register order.
        let g = generators::path(3);
        let t = Tableau::graph_state(&g);
        assert!(is_graph_state_on(&t, &g, &[0, 1, 2]));
        assert!(is_graph_state_on(&t, &g, &[2, 1, 0])); // path is symmetric
        let star = generators::star(3);
        let t = Tableau::graph_state(&star);
        assert!(is_graph_state_on(&t, &star, &[0, 1, 2]));
        assert!(!is_graph_state_on(&t, &star, &[1, 0, 2])); // hub moved
    }
}
