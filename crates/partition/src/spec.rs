//! Partition problem specification and result types.

use epgs_graph::{metrics, Graph};

/// Payload of [`PartitionScheme::Multilevel`], kept because `perfbench`
/// names it. The V-cycle has no knobs: its coarsening cutoff, refine passes
/// and one matching per level are constants of [`crate::multilevel`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultilevelOptions;

/// Which partitioning engine scores candidate graphs (paper §IV.A solves
/// one MIP; this crate offers two search schemes over the same model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Multi-restart FM on the flat graph (the pre-multilevel engine).
    /// At or below 48 vertices, selecting this reproduces the historical
    /// pipeline byte for byte.
    Flat,
    /// Multilevel coarsening: heavy-edge matching down to a small graph,
    /// initial partition there, FM refinement at every level on the way
    /// back up. Graphs at or below
    /// [`crate::multilevel::COARSEN_CUTOFF`] (48 vertices) delegate to the
    /// flat engine unchanged. Above it, the LC beam (budget 8) spends about
    /// 2.7× less time partitioning the six scale_mix graphs (n = 82–200)
    /// than under [`PartitionScheme::Flat`]: 0.13 s against 0.34 s on a
    /// shared 2-vCPU Linux VM, and its compiles end at 2463 ee-CNOTs
    /// against 2492.
    Multilevel(MultilevelOptions),
}

impl Default for PartitionScheme {
    fn default() -> Self {
        PartitionScheme::Multilevel(MultilevelOptions)
    }
}

/// Parameters of the graph-state partitioning problem (paper §IV.A).
///
/// The objective (Eq. 5) is the number of inter-subgraph edges; constraints
/// are the subgraph capacity `g_max` (Eq. 4) and the local-complementation
/// budget `l` (Eq. 2–3). The paper solves this with Gurobi under a 20-minute
/// timeout; this crate solves the same model with exact branch-and-bound at
/// small sizes and anytime local search above (see DESIGN.md §5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Maximum vertices per subgraph (paper default 7).
    pub g_max: usize,
    /// Maximum local complementations applied before partitioning
    /// (paper default 15; 0 disables LC optimization).
    pub lc_budget: usize,
    /// Restarts / iteration scale of the flat FM search. The multilevel
    /// scheme forwards it to that search at or below its coarsening cutoff
    /// and has no effort setting above it.
    pub effort: usize,
    /// RNG seed for the randomized phases.
    pub seed: u64,
    /// Partitioning engine used to score candidate graphs.
    pub scheme: PartitionScheme,
}

impl Default for PartitionSpec {
    fn default() -> Self {
        PartitionSpec {
            g_max: 7,
            lc_budget: 15,
            effort: 20,
            seed: 0xdac5,
            scheme: PartitionScheme::default(),
        }
    }
}

impl PartitionSpec {
    /// Number of blocks needed for a graph of `n` vertices: ⌈n / g_max⌉.
    pub fn num_blocks(&self, n: usize) -> usize {
        n.div_ceil(self.g_max).max(1)
    }
}

/// A partition of an (optionally LC-transformed) graph state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Block id per vertex of the *transformed* graph.
    pub block_of: Vec<usize>,
    /// LC sequence applied to the input graph before partitioning
    /// (empty when `lc_budget` was 0 or LC did not help).
    pub lc_sequence: Vec<usize>,
    /// The graph after applying `lc_sequence`.
    pub transformed: Graph,
    /// Number of inter-subgraph edges in `transformed` (objective K, Eq. 5).
    pub cut: usize,
    /// Set when the search gave something up — truncated at a deadline or
    /// fell back from the multilevel to the flat engine (see
    /// [`crate::SearchReport`]). Degraded partitions are valid but possibly
    /// lower quality, and are never persisted to the artifact store.
    pub degraded: bool,
}

impl Partition {
    /// Recomputes the cut from scratch; used to validate bookkeeping.
    pub fn recompute_cut(&self) -> usize {
        metrics::cut_edges(&self.transformed, &self.block_of)
    }

    /// Vertices of each block, sorted, blocks in id order.
    pub fn blocks(&self) -> Vec<Vec<usize>> {
        let nb = self.block_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut blocks = vec![Vec::new(); nb];
        for (v, &b) in self.block_of.iter().enumerate() {
            blocks[b].push(v);
        }
        blocks
    }

    /// Checks the capacity constraint.
    pub fn respects_capacity(&self, g_max: usize) -> bool {
        self.blocks().iter().all(|b| b.len() <= g_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::generators;

    #[test]
    fn default_matches_paper_configuration() {
        let spec = PartitionSpec::default();
        assert_eq!(spec.g_max, 7);
        assert_eq!(spec.lc_budget, 15);
    }

    #[test]
    fn num_blocks_is_ceiling() {
        let spec = PartitionSpec::default();
        assert_eq!(spec.num_blocks(7), 1);
        assert_eq!(spec.num_blocks(8), 2);
        assert_eq!(spec.num_blocks(21), 3);
        assert_eq!(spec.num_blocks(0), 1);
    }

    #[test]
    fn partition_bookkeeping() {
        let g = generators::path(4);
        let p = Partition {
            block_of: vec![0, 0, 1, 1],
            lc_sequence: vec![],
            transformed: g,
            cut: 1,
            degraded: false,
        };
        assert_eq!(p.recompute_cut(), 1);
        assert_eq!(p.blocks(), vec![vec![0, 1], vec![2, 3]]);
        assert!(p.respects_capacity(2));
        assert!(!p.respects_capacity(1));
    }
}
