//! Cheap, tableau-free cost estimates for emission orderings.
//!
//! The subgraph compiler's DFS (paper §IV.B) needs to rank many candidate
//! orderings before paying for full reverse solves. The height function gives
//! sound signals: its maximum is the emitter count, and every backward step
//! where the height fails to drop forces a time-reversed measurement /
//! emitter interaction in the reverse protocol. These counts are *estimates*
//! used only for pruning — the tableau solve is authoritative.

use epgs_graph::{height, Graph};

/// Height-function-derived estimate for one ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderingEstimate {
    /// Minimal emitter count (exact, from the height function).
    pub emitters: usize,
    /// Number of absorption steps where the height does not drop — each
    /// needs emitter-side work (a TRM or an emitter-emitter interaction).
    pub stalls: usize,
    /// `emitters + stalls`: the pruning score (lower is better).
    pub score: usize,
}

/// Estimates the cost of emitting `g` in `ordering`.
///
/// # Panics
///
/// Panics if `ordering` is not a permutation of the vertices.
///
/// # Examples
///
/// ```
/// use epgs_graph::generators;
/// use epgs_solver::cost::estimate_ordering;
///
/// let g = generators::path(6);
/// let natural: Vec<usize> = (0..6).collect();
/// let e = estimate_ordering(&g, &natural);
/// assert_eq!(e.emitters, 1);
/// assert_eq!(e.stalls, 1); // the emitter is measured out at the end
/// ```
pub fn estimate_ordering(g: &Graph, ordering: &[usize]) -> OrderingEstimate {
    let h = height::height_function(g, ordering);
    let emitters = h.iter().copied().max().unwrap_or(0).max(1);
    // Walking backward from j = n to 1: absorbing the photon at position j
    // needs a time-reversed measurement whenever the boundary entanglement
    // *grows* backward (h[j-1] > h[j]) — an extra emitter must join the
    // entangled set.
    let stalls = (1..h.len()).filter(|&j| h[j - 1] > h[j]).count();
    OrderingEstimate {
        emitters,
        stalls,
        score: emitters + stalls,
    }
}

/// Objective-dependent weights for the pruning score.
///
/// The unweighted [`OrderingEstimate::score`] treats an extra emitter and
/// an extra stall as equally bad — the right call when minimizing emitter
/// resources. Under a duration- or loss-driven objective the balance
/// shifts: every stall serializes emitter-side work (lengthening the
/// circuit and every photon's storage exposure), while an extra emitter
/// mostly costs hardware. `CostWeights` lets the caller encode that
/// preference without touching the sound underlying counts.
///
/// # Examples
///
/// ```
/// use epgs_graph::generators;
/// use epgs_solver::cost::{estimate_ordering, CostWeights};
///
/// let g = generators::path(6);
/// let natural: Vec<usize> = (0..6).collect();
/// let e = estimate_ordering(&g, &natural);
/// // Default weights reproduce the unweighted score exactly.
/// assert_eq!(CostWeights::default().score(&e), e.score as f64);
/// // Duration-focused weights punish the stall harder.
/// assert!(CostWeights::duration_focused().score(&e) > e.score as f64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Weight per emitter the ordering needs.
    pub emitters: f64,
    /// Weight per stalled absorption step.
    pub stalls: f64,
}

impl Default for CostWeights {
    /// Unit weights: with [`rank_orderings_weighted`] this reproduces the
    /// subgraph compiler's historic `(score, emitters)` ranking.
    fn default() -> Self {
        CostWeights {
            emitters: 1.0,
            stalls: 1.0,
        }
    }
}

impl CostWeights {
    /// Weights for duration/loss-driven objectives: stalls (which
    /// serialize the timeline) count three times an emitter.
    pub fn duration_focused() -> Self {
        CostWeights {
            emitters: 1.0,
            stalls: 3.0,
        }
    }

    /// The weighted pruning score of one estimate (lower is better).
    pub fn score(&self, estimate: &OrderingEstimate) -> f64 {
        self.emitters * estimate.emitters as f64 + self.stalls * estimate.stalls as f64
    }
}

/// Ranks `orderings` by the weighted estimate, cheapest first, breaking
/// weighted-score ties by raw emitter demand (stable beyond that). With
/// [`CostWeights::default`] this is exactly the subgraph compiler's
/// historic `(score, emitters)` ranking.
///
/// Each ordering is estimated once (not per comparison).
pub fn rank_orderings_weighted(g: &Graph, orderings: &mut [Vec<usize>], weights: &CostWeights) {
    let mut keyed: Vec<((f64, usize), Vec<usize>)> = orderings
        .iter_mut()
        .map(|ord| {
            let e = estimate_ordering(g, ord);
            ((weights.score(&e), e.emitters), std::mem::take(ord))
        })
        .collect();
    keyed.sort_by(|(ka, _), (kb, _)| ka.0.total_cmp(&kb.0).then(ka.1.cmp(&kb.1)));
    for (slot, (_, ord)) in orderings.iter_mut().zip(keyed) {
        *slot = ord;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::generators;

    #[test]
    fn path_natural_order_is_free() {
        let g = generators::path(8);
        let e = estimate_ordering(&g, &(0..8).collect::<Vec<_>>());
        assert_eq!(e.emitters, 1);
        // One stall: the single emitter is measured out after the last photon.
        assert_eq!(e.stalls, 1);
        assert_eq!(e.score, 2);
    }

    #[test]
    fn interleaved_path_order_is_penalized() {
        let g = generators::path(6);
        let natural = estimate_ordering(&g, &[0, 1, 2, 3, 4, 5]);
        let interleaved = estimate_ordering(&g, &[0, 2, 4, 1, 3, 5]);
        assert!(interleaved.score > natural.score);
        assert!(interleaved.emitters > natural.emitters);
    }

    #[test]
    fn lattice_row_major_needs_width_emitters() {
        let g = generators::lattice(3, 4);
        let e = estimate_ordering(&g, &(0..12).collect::<Vec<_>>());
        assert_eq!(e.emitters, 4);
    }

    #[test]
    fn rank_orders_cheapest_first() {
        let g = generators::path(6);
        let mut orderings = vec![vec![0, 2, 4, 1, 3, 5], vec![0, 1, 2, 3, 4, 5]];
        rank_orderings_weighted(&g, &mut orderings, &CostWeights::default());
        assert_eq!(orderings[0], vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn default_weights_match_the_historic_subgraph_ranking() {
        let g = generators::lattice(3, 3);
        let orderings = vec![
            (0..9).collect::<Vec<_>>(),
            vec![0, 3, 6, 1, 4, 7, 2, 5, 8],
            vec![8, 7, 6, 5, 4, 3, 2, 1, 0],
            vec![0, 4, 8, 1, 5, 2, 6, 3, 7],
        ];
        let mut legacy = orderings.clone();
        legacy.sort_by_key(|ord| {
            let e = estimate_ordering(&g, ord);
            (e.score, e.emitters)
        });
        let mut weighted = orderings;
        rank_orderings_weighted(&g, &mut weighted, &CostWeights::default());
        assert_eq!(legacy, weighted);
    }

    #[test]
    fn duration_weights_can_flip_a_ranking() {
        // Ordering A: fewer emitters, more stalls; ordering B: the reverse.
        let a = OrderingEstimate {
            emitters: 2,
            stalls: 4,
            score: 6,
        };
        let b = OrderingEstimate {
            emitters: 5,
            stalls: 1,
            score: 6,
        };
        let default = CostWeights::default();
        assert_eq!(default.score(&a), default.score(&b), "tied unweighted");
        let duration = CostWeights::duration_focused();
        assert!(
            duration.score(&b) < duration.score(&a),
            "stall-heavy ordering loses under duration weights"
        );
    }

    #[test]
    fn stalls_track_cycle_closure() {
        // A cycle's last photon closes the loop: height stays flat at some
        // step, so at least one stall appears.
        let g = generators::cycle(6);
        let e = estimate_ordering(&g, &(0..6).collect::<Vec<_>>());
        assert!(e.stalls >= 1);
        assert_eq!(e.emitters, 2);
    }
}
