//! The height function and minimal emitter count of a graph state.
//!
//! For an emission ordering p₁ … p_n of the photons, the *height* after the
//! j-th emission is the bipartite entanglement entropy between the already
//! emitted prefix {p₁…p_j} and the rest. For stabilizer/graph states this
//! equals the GF(2) rank of the off-diagonal adjacency block Γ[A, B]
//! (cut-rank). Li, Economou and Barnes (npj QI 8, 11 (2022)) showed that the
//! minimal number of emitters required to generate |G⟩ with a given ordering
//! is `max_j h(j)`.
//!
//! [`height_function`] evaluates every prefix in one pass. Columns of the cut
//! block Γ[A, B] are labelled by emission position, so after `j` emissions
//! the live columns are exactly the suffix `j..n`, and the pass keeps an
//! echelon basis of the block's row space in which each row's pivot is its
//! *highest* column. Emitting the photon at position `j` first drops column
//! `j`: it is the lowest live column, so it can only be the pivot of a row
//! that is exactly `e_j`, and removing that row is the whole rank decrease;
//! the column is then cleared from the other rows, whose pivots stay put.
//! The photon's own adjacency row, restricted to the columns after `j`, is
//! then reduced against the basis and kept if a nonzero remainder is left.
//! The invariant after step `j` is that the basis spans the row space of
//! Γ[{p₁…p_j}, {p_{j+1}…p_n}], so its size is `h(j)`. Each step costs one
//! reduction of `rank` word-row XORs, O(n · rank · n/64) in all, against
//! O(n) full rank computations when every prefix is ranked from scratch.
//! [`cut_rank`] ranks one cut directly and is the oracle the differential
//! tests compare the pass with.

use crate::gf2::BitMatrix;
use crate::graph::Graph;

/// GF(2) cut-rank of the vertex set `a` against its complement: the rank of
/// the adjacency block Γ[A, V∖A]. Equals the entanglement entropy (in bits)
/// of region `a` in the graph state |G⟩.
///
/// Vertices listed in `a` that repeat are counted once; out-of-range vertices
/// are ignored.
pub fn cut_rank(g: &Graph, a: &[usize]) -> usize {
    let n = g.vertex_count();
    let in_a = {
        let mut mask = vec![false; n];
        for &v in a {
            if v < n {
                mask[v] = true;
            }
        }
        mask
    };
    let a_list: Vec<usize> = (0..n).filter(|&v| in_a[v]).collect();
    let b_list: Vec<usize> = (0..n).filter(|&v| !in_a[v]).collect();
    if a_list.is_empty() || b_list.is_empty() {
        return 0;
    }
    let mut m = BitMatrix::zeros(a_list.len(), b_list.len());
    for (i, &va) in a_list.iter().enumerate() {
        for (j, &vb) in b_list.iter().enumerate() {
            if g.has_edge(va, vb) {
                m.set(i, j, true);
            }
        }
    }
    m.rank()
}

/// The height function of `g` under `ordering`: `h[j]` for `j = 0..=n` is the
/// cut-rank between the first `j` photons of the ordering and the rest
/// (`h[0] = h[n] = 0`).
///
/// One pass over the ordering with the incremental basis described in the
/// module docs; every `h[j]` equals `cut_rank(g, &ordering[..j])`.
///
/// # Panics
///
/// Panics if `ordering` is not a permutation of `0..n`.
pub fn height_function(g: &Graph, ordering: &[usize]) -> Vec<usize> {
    let n = g.vertex_count();
    assert_eq!(ordering.len(), n, "ordering must cover every vertex");
    // pos[v] = emission position of v; columns are labelled by position.
    let mut pos = vec![usize::MAX; n];
    for (j, &v) in ordering.iter().enumerate() {
        assert!(
            v < n && pos[v] == usize::MAX,
            "ordering must be a permutation of 0..n"
        );
        pos[v] = j;
    }
    let words = n.div_ceil(64);
    let mut basis = CutBasis {
        words,
        rows: Vec::with_capacity(n * words),
        pivot: Vec::new(),
        slot_of: vec![NONE; n],
    };
    let mut row = vec![0u64; words];
    let mut h = Vec::with_capacity(n + 1);
    h.push(0);
    for (j, &v) in ordering.iter().enumerate() {
        basis.drop_column(j);
        row.fill(0);
        for &w in g.neighbors(v) {
            if pos[w] > j {
                row[pos[w] / 64] |= 1 << (pos[w] % 64);
            }
        }
        basis.insert(&mut row);
        h.push(basis.pivot.len());
    }
    h
}

const NONE: usize = usize::MAX;

/// Echelon basis of the cut block's row space, columns labelled by emission
/// position. Every stored row's pivot is its highest set column, and no two
/// rows share a pivot.
struct CutBasis {
    /// Words per row.
    words: usize,
    /// Row-major row storage, `pivot.len()` rows of `words` words each.
    rows: Vec<u64>,
    /// Pivot column of each stored row.
    pivot: Vec<usize>,
    /// Row slot whose pivot is the column, or [`NONE`].
    slot_of: Vec<usize>,
}

impl CutBasis {
    /// Projects the row space onto the columns after `col`, the lowest live
    /// column. A row pivoting at `col` has no other bit, so it is `e_col`
    /// and removing it is the whole rank drop; every other row only loses
    /// its `col` bit, which keeps its pivot.
    fn drop_column(&mut self, col: usize) {
        let (w, mask) = (col / 64, 1u64 << (col % 64));
        let slot = self.slot_of[col];
        if slot != NONE {
            self.slot_of[col] = NONE;
            let last = self.pivot.len() - 1;
            if slot != last {
                let (head, tail) = self.rows.split_at_mut(last * self.words);
                head[slot * self.words..(slot + 1) * self.words].copy_from_slice(tail);
                self.pivot[slot] = self.pivot[last];
                self.slot_of[self.pivot[slot]] = slot;
            }
            self.pivot.pop();
            self.rows.truncate(last * self.words);
        }
        for r in self.rows.chunks_exact_mut(self.words) {
            r[w] &= !mask;
        }
    }

    /// Reduces `row` against the basis from its highest column down and
    /// stores it if a nonzero remainder is left.
    fn insert(&mut self, row: &mut [u64]) {
        while let Some(top) = highest_one(row) {
            let slot = self.slot_of[top];
            if slot == NONE {
                self.slot_of[top] = self.pivot.len();
                self.pivot.push(top);
                self.rows.extend_from_slice(row);
                return;
            }
            let stored = &self.rows[slot * self.words..(slot + 1) * self.words];
            for (d, &s) in row.iter_mut().zip(stored) {
                *d ^= s;
            }
        }
    }
}

/// Index of the highest set bit in `words`, if any.
fn highest_one(words: &[u64]) -> Option<usize> {
    words
        .iter()
        .rposition(|&w| w != 0)
        .map(|k| k * 64 + 63 - words[k].leading_zeros() as usize)
}

/// Minimal number of emitters needed to generate |G⟩ with the given emission
/// ordering: `max_j h(j)`.
///
/// # Panics
///
/// Panics if `ordering` is not a permutation of `0..n`.
pub fn min_emitters(g: &Graph, ordering: &[usize]) -> usize {
    height_function(g, ordering).into_iter().max().unwrap_or(0)
}

/// Minimal emitter count under the natural ordering `0, 1, …, n-1`.
pub fn min_emitters_natural(g: &Graph) -> usize {
    let ordering: Vec<usize> = (0..g.vertex_count()).collect();
    min_emitters(g, &ordering)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn cut_rank_empty_sides() {
        let g = generators::path(4);
        assert_eq!(cut_rank(&g, &[]), 0);
        assert_eq!(cut_rank(&g, &[0, 1, 2, 3]), 0);
    }

    #[test]
    fn path_needs_one_emitter() {
        // Linear cluster states are generated by a single emitter.
        let g = generators::path(10);
        let ordering: Vec<usize> = (0..10).collect();
        assert_eq!(min_emitters(&g, &ordering), 1);
    }

    #[test]
    fn height_endpoints_are_zero() {
        let g = generators::lattice(3, 3);
        let ordering: Vec<usize> = (0..9).collect();
        let h = height_function(&g, &ordering);
        assert_eq!(h[0], 0);
        assert_eq!(h[9], 0);
        assert_eq!(h.len(), 10);
    }

    #[test]
    fn lattice_height_scales_with_width() {
        // Row-major emission of an r×c lattice needs about c emitters.
        let g = generators::lattice(4, 4);
        assert_eq!(min_emitters_natural(&g), 4);
    }

    #[test]
    fn star_needs_one_emitter() {
        let g = generators::star(8);
        assert_eq!(min_emitters_natural(&g), 1);
    }

    #[test]
    fn complete_graph_needs_one_emitter() {
        // K_n is LC-equivalent to GHZ: every cut has rank 1.
        let g = generators::complete(6);
        assert_eq!(min_emitters_natural(&g), 1);
    }

    #[test]
    fn cut_rank_matches_edge_cut_for_tree() {
        // In a tree every cut's adjacency block has rank = number of
        // *distinct* cut vertex pairs rows that are independent; for a
        // prefix of a path it is exactly 1.
        let g = generators::path(6);
        assert_eq!(cut_rank(&g, &[0, 1, 2]), 1);
        assert_eq!(cut_rank(&g, &[0, 2, 4]), 3);
    }

    #[test]
    fn ordering_changes_emitter_count() {
        let g = generators::path(6);
        // Interleaved ordering forces more simultaneous entanglement.
        assert!(min_emitters(&g, &[0, 2, 4, 1, 3, 5]) > 1);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn bad_ordering_panics() {
        let g = generators::path(3);
        height_function(&g, &[0, 0, 1]);
    }

    #[test]
    fn height_is_lc_invariant_at_most_shifted() {
        // Cut-rank is invariant under local complementation *of the cut*:
        // LC at a vertex inside A only changes edges within A's neighborhood
        // intersected appropriately; the rank of Γ[A,B] is preserved when the
        // complemented vertex's neighbors straddle the cut in special cases.
        // Here we just sanity-check that LC never makes a rank exceed |A|.
        let mut g = generators::lattice(3, 3);
        crate::ops::local_complement(&mut g, 4).unwrap();
        for j in 1..9 {
            let a: Vec<usize> = (0..j).collect();
            assert!(cut_rank(&g, &a) <= j);
        }
    }
}
