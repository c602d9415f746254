//! The scalar (row-major) reference tableau.
//!
//! This is the original, straightforward implementation of the phase-tracked
//! stabilizer tableau: X/Z bits in row-major [`BitMatrix`] storage, one `u8`
//! phase exponent per row, and gates that visit every generator row with
//! single-bit reads. The production [`epgs_stabilizer::Tableau`] replaced it with a
//! bit-sliced word-parallel engine; this copy is kept as the semantic
//! oracle: the randomized equivalence tests drive identical
//! gate/measurement sequences through both engines and require every X/Z
//! bit, phase exponent, and measurement outcome to match.
//!
//! Keep this module dumb on purpose: any optimization applied here would
//! erode its value as ground truth.

use epgs_graph::gf2::BitMatrix;
use epgs_graph::Graph;

use epgs_stabilizer::MeasureOutcome;

/// Row-major, per-bit reference implementation of the stabilizer tableau.
///
/// Semantics (phase convention, gate set, forced-outcome measurement) are
/// identical to [`epgs_stabilizer::Tableau`]; only the data layout and loop structure
/// differ.
#[derive(Clone, PartialEq, Eq)]
pub struct RefTableau {
    n: usize,
    x: BitMatrix,
    z: BitMatrix,
    /// Phase exponent per row, mod 4.
    phase: Vec<u8>,
}

impl RefTableau {
    /// The all-|0⟩ state: generators `Z_q`.
    pub fn zero_state(n: usize) -> Self {
        let mut t = RefTableau {
            n,
            x: BitMatrix::zeros(n, n),
            z: BitMatrix::zeros(n, n),
            phase: vec![0; n],
        };
        for q in 0..n {
            t.z.set(q, q, true);
        }
        t
    }

    /// The graph state |G⟩: generators `X_v Z_{N(v)}`.
    pub fn graph_state(g: &Graph) -> Self {
        let n = g.vertex_count();
        let mut t = RefTableau {
            n,
            x: BitMatrix::zeros(n, n),
            z: BitMatrix::zeros(n, n),
            phase: vec![0; n],
        };
        for v in 0..n {
            t.x.set(v, v, true);
            for &w in g.neighbors(v) {
                t.z.set(v, w, true);
            }
        }
        t
    }

    /// Number of qubits (and generators).
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// X bit of row `row` at qubit `q`.
    pub fn x_bit(&self, row: usize, q: usize) -> bool {
        self.x.get(row, q)
    }

    /// Z bit of row `row` at qubit `q`.
    pub fn z_bit(&self, row: usize, q: usize) -> bool {
        self.z.get(row, q)
    }

    /// The phase exponent `r ∈ Z₄` of row `row`.
    pub fn phase_of(&self, row: usize) -> u8 {
        self.phase[row]
    }

    /// Hadamard on qubit `q` (`X ↔ Z`).
    pub fn h(&mut self, q: usize) {
        for row in 0..self.n {
            let xb = self.x.get(row, q);
            let zb = self.z.get(row, q);
            if xb && zb {
                self.phase[row] = (self.phase[row] + 2) % 4;
            }
            self.x.set(row, q, zb);
            self.z.set(row, q, xb);
        }
    }

    /// Phase gate S on qubit `q` (`X → Y`).
    pub fn s(&mut self, q: usize) {
        for row in 0..self.n {
            if self.x.get(row, q) {
                self.z.flip(row, q);
                self.phase[row] = (self.phase[row] + 1) % 4;
            }
        }
    }

    /// Inverse phase gate S† on qubit `q` (`X → −Y`).
    pub fn sdg(&mut self, q: usize) {
        for row in 0..self.n {
            if self.x.get(row, q) {
                self.z.flip(row, q);
                self.phase[row] = (self.phase[row] + 3) % 4;
            }
        }
    }

    /// Pauli X on qubit `q`.
    pub fn px(&mut self, q: usize) {
        for row in 0..self.n {
            if self.z.get(row, q) {
                self.phase[row] = (self.phase[row] + 2) % 4;
            }
        }
    }

    /// Pauli Z on qubit `q`.
    pub fn pz(&mut self, q: usize) {
        for row in 0..self.n {
            if self.x.get(row, q) {
                self.phase[row] = (self.phase[row] + 2) % 4;
            }
        }
    }

    /// Pauli Y on qubit `q`.
    pub fn py(&mut self, q: usize) {
        for row in 0..self.n {
            if self.x.get(row, q) != self.z.get(row, q) {
                self.phase[row] = (self.phase[row] + 2) % 4;
            }
        }
    }

    /// CNOT with control `c`, target `t` (no phase in this convention).
    ///
    /// # Panics
    ///
    /// Panics if `c == t`.
    pub fn cnot(&mut self, c: usize, t: usize) {
        assert_ne!(c, t, "cnot requires distinct qubits");
        for row in 0..self.n {
            if self.x.get(row, c) {
                self.x.flip(row, t);
            }
            if self.z.get(row, t) {
                self.z.flip(row, c);
            }
        }
    }

    /// CZ on qubits `a`, `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn cz(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "cz requires distinct qubits");
        for row in 0..self.n {
            let xa = self.x.get(row, a);
            let xb = self.x.get(row, b);
            if xa && xb {
                self.phase[row] = (self.phase[row] + 2) % 4;
            }
            if xa {
                self.z.flip(row, b);
            }
            if xb {
                self.z.flip(row, a);
            }
        }
    }

    /// Replaces row `dst` with the product `row_dst · row_src`.
    ///
    /// # Panics
    ///
    /// Panics if `dst == src`.
    pub fn row_mul(&mut self, dst: usize, src: usize) {
        assert_ne!(dst, src, "row_mul requires distinct rows");
        let mut swaps = 0u8;
        for q in 0..self.n {
            if self.z.get(dst, q) && self.x.get(src, q) {
                swaps ^= 1;
            }
        }
        self.phase[dst] = (self.phase[dst] + self.phase[src] + if swaps == 1 { 2 } else { 0 }) % 4;
        self.x.xor_rows(dst, src);
        self.z.xor_rows(dst, src);
    }

    /// Swaps two generator rows.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        self.x.swap_rows(a, b);
        self.z.swap_rows(a, b);
        self.phase.swap(a, b);
    }

    /// Measures qubit `q` in the Z basis, collapsing random outcomes onto
    /// `forced`. Same contract as [`epgs_stabilizer::Tableau::measure_z`].
    pub fn measure_z(&mut self, q: usize, forced: bool) -> MeasureOutcome {
        let pivot = (0..self.n).find(|&r| self.x.get(r, q));
        match pivot {
            Some(p) => {
                let rows: Vec<usize> = (0..self.n)
                    .filter(|&r| r != p && self.x.get(r, q))
                    .collect();
                for r in rows {
                    self.row_mul(r, p);
                }
                for col in 0..self.n {
                    self.x.set(p, col, false);
                    self.z.set(p, col, col == q);
                }
                self.phase[p] = if forced { 2 } else { 0 };
                MeasureOutcome::Random(forced)
            }
            None => {
                let sign = self
                    .deterministic_z_sign(q)
                    .expect("no X at q implies Z_q is in the group for a pure state");
                MeasureOutcome::Deterministic(sign)
            }
        }
    }

    /// Deterministic-measurement sign of `Z_q`, or `None` if an X is present
    /// at `q`. Same contract as [`epgs_stabilizer::Tableau::deterministic_z_sign`].
    pub fn deterministic_z_sign(&self, q: usize) -> Option<bool> {
        if (0..self.n).any(|r| self.x.get(r, q)) {
            return None;
        }
        let mut a = BitMatrix::zeros(2 * self.n, self.n);
        for r in 0..self.n {
            for col in 0..self.n {
                a.set(col, r, self.x.get(r, col));
                a.set(self.n + col, r, self.z.get(r, col));
            }
        }
        let mut target = vec![false; 2 * self.n];
        target[self.n + q] = true;
        let combo = a.solve(&target)?;
        let mut acc_x = vec![false; self.n];
        let mut acc_z = vec![false; self.n];
        let mut phase: u8 = 0;
        for (r, &take) in combo.iter().enumerate() {
            if !take {
                continue;
            }
            let mut swaps = 0u8;
            for (col, &az) in acc_z.iter().enumerate() {
                if az && self.x.get(r, col) {
                    swaps ^= 1;
                }
            }
            phase = (phase + self.phase[r] + if swaps == 1 { 2 } else { 0 }) % 4;
            for col in 0..self.n {
                acc_x[col] ^= self.x.get(r, col);
                acc_z[col] ^= self.z.get(r, col);
            }
        }
        debug_assert!(acc_x.iter().all(|&b| !b));
        debug_assert!(phase.is_multiple_of(2));
        Some(phase == 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::generators;

    #[test]
    fn reference_zero_state_measures_deterministically() {
        let mut t = RefTableau::zero_state(3);
        assert_eq!(t.measure_z(1, true), MeasureOutcome::Deterministic(false));
    }

    #[test]
    fn reference_bell_pair_correlates() {
        let mut t = RefTableau::zero_state(2);
        t.h(0);
        t.cnot(0, 1);
        assert_eq!(t.measure_z(0, true), MeasureOutcome::Random(true));
        assert_eq!(t.measure_z(1, false), MeasureOutcome::Deterministic(true));
    }

    #[test]
    fn reference_graph_state_bits() {
        let g = generators::path(3);
        let t = RefTableau::graph_state(&g);
        assert!(t.x_bit(0, 0) && t.z_bit(0, 1) && !t.z_bit(0, 2));
        assert_eq!(t.phase_of(0), 0);
    }
}
