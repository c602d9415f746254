//! The per-candidate, full-width reference of the element search.
//!
//! This is the search of `Tableau::find_element_weighted_in` as it was
//! before the descent cached letter masks and before singleton constraint
//! rows were substituted out: the constraint system keeps every non-zero
//! forbidden row over all `n` generators, and every candidate combination
//! `c ⊕ null_v` is materialized and weighed with two
//! [`BitVec::parity_and`] calls per allowed qubit. It builds the system
//! through the tableau's public column views, allocates freshly on every
//! call, and is kept as the oracle the compacted search must match row for
//! row.

use epgs_graph::gf2::{BitMatrix, BitVec};
use epgs_stabilizer::Tableau;

/// The full-width constraint system of a query, reduced over its `n`
/// generator columns with the three target patterns as trailing rhs
/// columns: `(reduced matrix, pivots, allowed qubits ascending)`.
fn reduced_system(
    t: &Tableau,
    restrict: &[usize],
    target: usize,
    allowed: &[usize],
) -> (BitMatrix, Vec<usize>, Vec<usize>) {
    let n = t.num_qubits();
    let mut in_restrict = vec![false; n];
    for &q in restrict {
        if q < n {
            in_restrict[q] = true;
        }
    }
    let mut in_allowed = vec![false; n];
    for &q in allowed {
        if q < n {
            in_allowed[q] = true;
        }
    }
    let allowed_sorted: Vec<usize> = (0..n).filter(|&q| in_allowed[q]).collect();
    let forbidden: Vec<usize> = (0..n)
        .filter(|&q| q != target && (in_restrict[q] || !in_allowed[q]))
        .collect();
    let mut a = BitMatrix::zeros(2 * forbidden.len() + 2, n + 3);
    let mut base = 0;
    for &q in &forbidden {
        if !t.col_x(q).is_zero() {
            a.copy_row_from(base, t.col_x(q));
            base += 1;
        }
        if !t.col_z(q).is_zero() {
            a.copy_row_from(base, t.col_z(q));
            base += 1;
        }
    }
    a.truncate_rows(base + 2);
    a.copy_row_from(base, t.col_x(target));
    a.copy_row_from(base + 1, t.col_z(target));
    a.set(base, n, true);
    a.set(base + 1, n + 1, true);
    a.set(base, n + 2, true);
    a.set(base + 1, n + 2, true);
    let mut pivots = Vec::new();
    a.rref_within_into(n, &mut pivots);
    (a, pivots, allowed_sorted)
}

/// The rows of the first valid element (patterns in order, free variables
/// zero), with no weight optimization.
pub fn find_element_any(
    t: &Tableau,
    restrict: &[usize],
    target: usize,
    allowed: &[usize],
) -> Option<Vec<usize>> {
    let n = t.num_qubits();
    let (a, pivots, _) = reduced_system(t, restrict, target, allowed);
    (0..3).find_map(|pattern| {
        let c = a.solution_from_reduced(&pivots, n, pattern)?;
        (!c.is_zero()).then(|| c.ones().collect())
    })
}

/// The rows to multiply for a stabilizer touching `target` and no other
/// qubit of `restrict`, supported outside `restrict` only on `allowed`,
/// with (locally) minimal `weight_of` support on `allowed`.
pub fn find_element_weighted(
    t: &Tableau,
    restrict: &[usize],
    target: usize,
    allowed: &[usize],
    weight_of: impl Fn(usize) -> usize,
) -> Option<Vec<usize>> {
    let n = t.num_qubits();
    let (a, pivots, allowed_sorted) = reduced_system(t, restrict, target, allowed);
    let null_dim = n - pivots.len();
    let weight = |c: &BitVec| -> usize {
        allowed_sorted
            .iter()
            .filter(|&&q| t.col_x(q).parity_and(c) || t.col_z(q).parity_and(c))
            .map(|&q| weight_of(q))
            .sum()
    };
    let mut null: Option<BitMatrix> = None;
    let mut best: Option<(usize, BitVec)> = None;
    for pattern in 0..3 {
        let mut c = BitVec::zeros(0);
        if !a.solution_from_reduced_into(&pivots, n, pattern, &mut c) || c.is_zero() {
            continue;
        }
        let mut w = weight(&c);
        let mut improved = w > 0 && null_dim > 0;
        while improved {
            let basis = null.get_or_insert_with(|| a.null_space_from_reduced(&pivots, n));
            improved = false;
            for v in 0..basis.rows() {
                let mut cand = c.clone();
                basis.xor_row_into(v, &mut cand);
                if cand.is_zero() {
                    continue;
                }
                let cw = weight(&cand);
                if cw < w {
                    c = cand;
                    w = cw;
                    improved = true;
                }
            }
            improved = improved && w > 0;
        }
        if best.as_ref().is_none_or(|(bw, _)| w < *bw) {
            best = Some((w, c));
        }
    }
    best.map(|(_, c)| c.ones().collect())
}
