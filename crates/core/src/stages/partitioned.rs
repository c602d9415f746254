//! Stage 1 artifact: the partitioned target (paper §IV.A).

use std::sync::Arc;

use epgs_graph::Graph;
use epgs_partition::{partition_with_lc_controlled, Partition, SearchControl};

use crate::error::FrameworkError;
use crate::stages::planned::Planned;
use crate::stages::{ne_min_of, Shared};

/// The target graph split into ≤ `g_max` blocks, after the depth-limited
/// local-complementation search that shrinks the inter-block cut.
///
/// Produced by [`crate::Pipeline::partition`]; consumed (non-destructively)
/// by [`Partitioned::plan_leaves`]. The partition held here is the *search
/// result*; leaf planning may refine it further with block-local LC.
///
/// # Examples
///
/// ```
/// use epgs::{FrameworkConfig, PartitionSpec, Pipeline};
/// use epgs_graph::generators;
///
/// let pipeline = Pipeline::new(FrameworkConfig {
///     partition: PartitionSpec { g_max: 4, ..Default::default() },
///     ..Default::default()
/// });
/// let partitioned = pipeline.partition(&generators::lattice(3, 3));
/// assert!(partitioned.partition().respects_capacity(4));
/// assert!(partitioned.ne_min() >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct Partitioned {
    pub(crate) shared: Arc<Shared>,
    pub(crate) target: Arc<Graph>,
    partition: Partition,
    ne_min: usize,
}

impl Partitioned {
    pub(crate) fn build(shared: Arc<Shared>, target: &Graph) -> Self {
        Self::build_controlled(shared, target, &SearchControl::default())
    }

    pub(crate) fn build_controlled(
        shared: Arc<Shared>,
        target: &Graph,
        ctrl: &SearchControl,
    ) -> Self {
        let (partition, _report) =
            partition_with_lc_controlled(target, &shared.config.partition, ctrl);
        let ne_min = ne_min_of(target);
        shared
            .counters
            .partition
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Partitioned {
            shared,
            target: Arc::new(target.clone()),
            partition,
            ne_min,
        }
    }

    /// The original (untransformed) target graph.
    pub fn target(&self) -> &Graph {
        &self.target
    }

    /// The partition found by the search, including its LC sequence and the
    /// transformed graph it applies to.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Minimal emitter count `Ne_min` of the target (best deterministic
    /// ordering), the reference point budgets are expressed against.
    pub fn ne_min(&self) -> usize {
        self.ne_min
    }

    /// Stage 2: compiles every leaf subgraph near-optimally (paper §IV.B),
    /// in parallel across blocks, then refines blocks with interior local
    /// complementations that shed emitter-emitter CNOTs.
    ///
    /// Calling this repeatedly is deterministic: the same artifact always
    /// plans the same leaves.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Solver`] if a leaf solve fails (given automatic
    /// pool growth, an internal bug rather than an input condition).
    pub fn plan_leaves(&self) -> Result<Planned, FrameworkError> {
        Planned::build(self)
    }

    pub(crate) fn partition_clone(&self) -> Partition {
        self.partition.clone()
    }
}

#[cfg(test)]
mod tests {

    use crate::config::FrameworkConfig;
    use crate::stages::Pipeline;
    use epgs_graph::generators;
    use epgs_partition::PartitionSpec;

    #[test]
    fn partition_respects_capacity_and_counts_ne_min() {
        let p = Pipeline::new(FrameworkConfig {
            partition: PartitionSpec {
                g_max: 5,
                ..Default::default()
            },
            ..Default::default()
        });
        let art = p.partition(&generators::lattice(3, 4));
        assert!(art.partition().respects_capacity(5));
        let expected = crate::stages::ne_min_of(&generators::lattice(3, 4));
        assert_eq!(art.ne_min(), expected);
        assert!(expected >= 2, "4-wide lattice needs multiple emitters");
        assert_eq!(art.target().vertex_count(), 12);
    }

    #[test]
    fn partitioned_is_cheaply_cloneable_and_stable() {
        let p = Pipeline::new(FrameworkConfig {
            partition: PartitionSpec {
                g_max: 4,
                ..Default::default()
            },
            ..Default::default()
        });
        let a = p.partition(&generators::tree(10, 2));
        let b = a.clone();
        assert_eq!(a.partition(), b.partition());
        // Cloning an artifact must not count as re-running the stage.
        assert_eq!(p.counters().partition, 1);
    }

    #[test]
    fn repartitioning_same_target_is_deterministic() {
        let p = Pipeline::new(FrameworkConfig {
            partition: PartitionSpec {
                g_max: 5,
                ..Default::default()
            },
            ..Default::default()
        });
        let g = generators::cycle(11);
        let a = p.partition(&g);
        let b = p.partition(&g);
        assert_eq!(a.partition(), b.partition());
        assert_eq!(p.counters().partition, 2);
    }
}
