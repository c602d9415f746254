//! Stage 3 artifact: the Tetris-packed schedule (paper §IV.C).

use std::sync::Arc;

use epgs_graph::Graph;

use crate::error::FrameworkError;
use crate::schedule::Schedule;
use crate::stages::planned::{Planned, PlannedData};
use crate::stages::recombined::{RecombineStrategy, Recombined};
use crate::stages::Shared;

/// The leaf circuits placed on a shared timeline under a concrete emitter
/// budget `Ne_limit`.
///
/// Scheduling is the first budget-dependent stage: everything upstream
/// ([`Planned`]) is budget-independent and shared, so a budget sweep holds
/// one `Planned` and many `Scheduled`s.
///
/// # Examples
///
/// ```
/// use epgs::{FrameworkConfig, PartitionSpec, Pipeline};
/// use epgs_graph::generators;
///
/// # fn main() -> Result<(), epgs::FrameworkError> {
/// let pipeline = Pipeline::new(FrameworkConfig {
///     partition: PartitionSpec { g_max: 4, ..Default::default() },
///     ..Default::default()
/// });
/// let planned = pipeline.partition(&generators::lattice(3, 3)).plan_leaves()?;
/// let scheduled = planned.schedule(2);
/// assert_eq!(scheduled.ne_limit(), 2);
/// assert_eq!(scheduled.schedule().placements.len(), planned.plans().len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scheduled {
    pub(crate) shared: Arc<Shared>,
    pub(crate) target: Arc<Graph>,
    pub(crate) data: Arc<PlannedData>,
    pub(crate) sched: Schedule,
    pub(crate) ne_limit: usize,
}

impl Scheduled {
    pub(crate) fn new(planned: &Planned, sched: Schedule, ne_limit: usize) -> Self {
        Scheduled {
            shared: Arc::clone(&planned.shared),
            target: Arc::clone(&planned.target),
            data: Arc::clone(&planned.data),
            sched,
            ne_limit,
        }
    }

    /// The packed schedule: placements, makespan estimate, budget.
    pub fn schedule(&self) -> &Schedule {
        &self.sched
    }

    /// The emitter budget this schedule was packed under.
    pub fn ne_limit(&self) -> usize {
        self.ne_limit
    }

    /// The global emission ordering the schedule induces over the
    /// transformed graph's vertices.
    pub fn global_ordering(&self) -> Vec<usize> {
        self.sched.global_ordering(&self.data.plans)
    }

    /// Stage 4: recombines the scheduled leaf circuits into one global
    /// circuit, every [`RecombineStrategy`] competing under the configured
    /// [objective](crate::FrameworkConfig::objective).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Solver`] if every candidate solve fails.
    pub fn recombine(&self) -> Result<Recombined, FrameworkError> {
        self.recombine_with(&RecombineStrategy::all())
    }

    /// Stage 4 with an explicit strategy list, solved on the worker pool
    /// (ties keep candidate order); the best circuit under the configured
    /// [objective](crate::FrameworkConfig::objective) wins (the default
    /// objective is the paper's lexicographic #ee-CNOT, then `T_loss`,
    /// then duration order).
    ///
    /// # Errors
    ///
    /// [`FrameworkError::NoRecombineStrategy`] if `strategies` is empty,
    /// or [`FrameworkError::Solver`] if every candidate solve fails.
    pub fn recombine_with(
        &self,
        strategies: &[RecombineStrategy],
    ) -> Result<Recombined, FrameworkError> {
        Recombined::build(self, strategies)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::FrameworkConfig;
    use crate::stages::Pipeline;
    use epgs_graph::generators;
    use epgs_partition::PartitionSpec;

    #[test]
    fn budgets_scale_the_makespan_monotonically() {
        let p = Pipeline::new(FrameworkConfig {
            partition: PartitionSpec {
                g_max: 4,
                ..Default::default()
            },
            orderings_per_subgraph: 4,
            ..Default::default()
        });
        let planned = p
            .partition(&generators::lattice(3, 4))
            .plan_leaves()
            .unwrap();
        let m1 = planned.schedule(1).schedule().makespan;
        let m4 = planned.schedule(4).schedule().makespan;
        assert!(m4 <= m1 + 1e-9, "more emitters never slow the schedule");
    }

    #[test]
    fn global_ordering_is_a_permutation_of_vertices() {
        let p = Pipeline::new(FrameworkConfig {
            partition: PartitionSpec {
                g_max: 4,
                ..Default::default()
            },
            ..Default::default()
        });
        let planned = p.partition(&generators::tree(11, 2)).plan_leaves().unwrap();
        let mut ord = planned.schedule(2).global_ordering();
        ord.sort_unstable();
        assert_eq!(ord, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn zero_budget_is_clamped_to_one() {
        let p = Pipeline::new(FrameworkConfig {
            partition: PartitionSpec {
                g_max: 4,
                ..Default::default()
            },
            ..Default::default()
        });
        let planned = p.partition(&generators::path(6)).plan_leaves().unwrap();
        assert_eq!(planned.schedule(0).ne_limit(), 1);
    }
}
