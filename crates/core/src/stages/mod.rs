//! The staged compilation pipeline (paper Fig. 6), one artifact per stage.
//!
//! [`Pipeline::compile`] runs five stages — partition → per-leaf compile →
//! schedule → recombine → verify — and this module exposes each as an
//! explicit, reusable artifact:
//!
//! ```text
//! Pipeline::partition(&Graph)   -> Partitioned   (§IV.A  partition + LC)
//! Partitioned::plan_leaves()    -> Planned       (§IV.B  leaf circuits, parallel)
//! Planned::schedule(ne_limit)   -> Scheduled     (§IV.C  Tetris packing)
//! Scheduled::recombine()        -> Recombined    (§IV.D  global solve)
//! Recombined::verify()          -> Compiled      (§IV.E  stabilizer check)
//! ```
//!
//! Artifacts are cheap to clone (heavy state is shared behind `Arc`) and
//! every stage method takes `&self`, so one expensive prefix can fan out
//! into many cheap suffixes. The paper's §V.B.2 emitter-budget sweeps
//! (`1.5×` / `2× Ne_min`) are the motivating case: [`Planned`] is computed
//! once and [`Planned::schedule`] is called per budget, skipping the
//! partition search and every leaf solve on all but the first point.
//!
//! # Examples
//!
//! A two-budget sweep that partitions and compiles leaves exactly once:
//!
//! ```
//! use epgs::{FrameworkConfig, PartitionSpec, Pipeline};
//! use epgs_graph::generators;
//!
//! # fn main() -> Result<(), epgs::FrameworkError> {
//! let pipeline = Pipeline::new(FrameworkConfig {
//!     partition: PartitionSpec { g_max: 5, ..Default::default() },
//!     ..Default::default()
//! });
//! let planned = pipeline.partition(&generators::lattice(3, 3)).plan_leaves()?;
//! for budget in [2, 4] {
//!     let compiled = planned.schedule(budget).recombine()?.verify()?;
//!     assert_eq!(compiled.ne_limit, budget);
//! }
//! let counts = pipeline.counters();
//! assert_eq!((counts.partition, counts.plan, counts.schedule), (1, 1, 2));
//! # Ok(())
//! # }
//! ```

pub mod partitioned;
pub mod planned;
pub mod recombined;
pub mod scheduled;

pub use partitioned::Partitioned;
pub use planned::Planned;
pub use recombined::{Compiled, RecombineStrategy, Recombined};
pub use scheduled::Scheduled;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use epgs_graph::{height, Graph};
use epgs_partition::SearchControl;
use epgs_solver::ordering;

use crate::config::FrameworkConfig;
use crate::error::FrameworkError;

/// Execution counters of one [`Pipeline`], incremented once per stage run.
///
/// These make sweep-reuse claims checkable: after a k-budget sweep off one
/// [`Planned`] artifact, `partition == plan == 1` while `schedule == k`.
#[derive(Debug, Default)]
pub(crate) struct StageCounters {
    pub(crate) partition: AtomicUsize,
    pub(crate) plan: AtomicUsize,
    pub(crate) schedule: AtomicUsize,
    pub(crate) recombine: AtomicUsize,
    pub(crate) verify: AtomicUsize,
}

/// A point-in-time snapshot of a pipeline's internal stage counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCounts {
    /// Completed partition stages.
    pub partition: usize,
    /// Completed leaf-planning stages.
    pub plan: usize,
    /// Completed scheduling stages.
    pub schedule: usize,
    /// Completed recombination stages.
    pub recombine: usize,
    /// Completed verification stages.
    pub verify: usize,
}

/// Configuration + counters shared by every artifact of one pipeline.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) config: FrameworkConfig,
    pub(crate) counters: StageCounters,
}

/// The compiler front-end: the one way to compile a target.
///
/// Construct once per configuration, then either run a target end to end
/// with [`Pipeline::compile`] or drive it through the stages by hand when
/// intermediate artifacts are worth keeping — budget sweeps, schedule
/// inspection, or recombination experiments.
///
/// # Examples
///
/// ```
/// use epgs::{FrameworkConfig, Pipeline};
/// use epgs_graph::generators;
///
/// # fn main() -> Result<(), epgs::FrameworkError> {
/// let pipeline = Pipeline::new(FrameworkConfig::default());
/// let compiled = pipeline.compile(&generators::lattice(3, 3))?;
/// assert!(compiled.metrics.duration > 0.0);
///
/// // The same compile at an explicit emitter budget:
/// let at_four = pipeline
///     .partition(&generators::lattice(3, 3))
///     .plan_leaves()?
///     .schedule(4)
///     .recombine()?
///     .verify()?;
/// assert_eq!(at_four.ne_limit, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub(crate) shared: Arc<Shared>,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: FrameworkConfig) -> Self {
        Pipeline {
            shared: Arc::new(Shared {
                config,
                counters: StageCounters::default(),
            }),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FrameworkConfig {
        &self.shared.config
    }

    /// Snapshot of how many times each stage has executed on this pipeline.
    pub fn counters(&self) -> StageCounts {
        let c = &self.shared.counters;
        StageCounts {
            partition: c.partition.load(Ordering::Relaxed),
            plan: c.plan.load(Ordering::Relaxed),
            schedule: c.schedule.load(Ordering::Relaxed),
            recombine: c.recombine.load(Ordering::Relaxed),
            verify: c.verify.load(Ordering::Relaxed),
        }
    }

    /// Stage 1: partitions `target` with depth-limited local
    /// complementation (paper §IV.A) and computes its `Ne_min` reference.
    pub fn partition(&self, target: &Graph) -> Partitioned {
        Partitioned::build(Arc::clone(&self.shared), target)
    }

    /// [`Pipeline::partition`] under runtime controls — a cooperative
    /// deadline and/or fault hooks for the partition search (see
    /// [`epgs_partition::SearchControl`]). With default controls this is
    /// byte-identical to [`Pipeline::partition`]. A truncated or
    /// fallen-back search marks the result
    /// [degraded](epgs_partition::Partition::degraded).
    pub fn partition_with_control(&self, target: &Graph, ctrl: &SearchControl) -> Partitioned {
        Partitioned::build_controlled(Arc::clone(&self.shared), target, ctrl)
    }

    /// Runs all five stages for `target` under the configured emitter
    /// budget ([`Planned::configured_budget`]).
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::Solver`] if any solve fails, or
    /// [`FrameworkError::VerificationFailed`] if the final circuit does not
    /// regenerate `target` (an internal bug).
    pub fn compile(&self, target: &Graph) -> Result<Compiled, FrameworkError> {
        let planned = self.partition(target).plan_leaves()?;
        planned
            .schedule(planned.configured_budget())
            .recombine()?
            .verify()
    }
}

/// Minimal emitter count of `g` over the deterministic ordering strategies —
/// the paper's `Ne_min` reference point.
pub(crate) fn ne_min_of(g: &Graph) -> usize {
    [
        ordering::natural(g),
        ordering::bfs(g),
        ordering::degree_dfs(g),
    ]
    .iter()
    .map(|ord| height::min_emitters(g, ord))
    .min()
    .unwrap_or(0)
    .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::quick_config;
    use epgs_graph::generators;

    fn quick_pipeline() -> Pipeline {
        Pipeline::new(quick_config())
    }

    /// Compiles `g` through the stage chain at an explicit budget.
    fn compile_at(p: &Pipeline, g: &Graph, budget: usize) -> Compiled {
        p.partition(g)
            .plan_leaves()
            .and_then(|planned| planned.schedule(budget).recombine())
            .and_then(Recombined::verify)
            .expect("compiles")
    }

    #[test]
    fn staged_run_matches_monolithic_compile() {
        // `compile` is the stage chain at the configured budget, nothing more.
        let p = quick_pipeline();
        let g = generators::lattice(3, 3);
        let monolith = p.compile(&g).expect("compiles");
        let planned = p.partition(&g).plan_leaves().expect("plans");
        let staged = planned
            .schedule(planned.configured_budget())
            .recombine()
            .and_then(Recombined::verify)
            .expect("staged compiles");
        assert_eq!(staged.circuit, monolith.circuit);
        assert_eq!(staged.metrics, monolith.metrics);
        assert_eq!(staged.partition, monolith.partition);
        assert_eq!(staged.global_ordering, monolith.global_ordering);
        assert_eq!(staged.ne_limit, monolith.ne_limit);
    }

    #[test]
    fn compiles_and_verifies_lattice() {
        let c = quick_pipeline()
            .compile(&generators::lattice(3, 3))
            .expect("lattice compiles");
        assert_eq!(c.circuit.emission_count(), 9);
        assert!(c.metrics.duration > 0.0);
        assert!(c.ne_limit >= c.ne_min);
    }

    #[test]
    fn compiles_and_verifies_tree() {
        let c = quick_pipeline()
            .compile(&generators::tree(10, 2))
            .expect("tree compiles");
        assert_eq!(c.global_ordering.len(), 10);
    }

    #[test]
    fn compiles_waxman() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let g = generators::waxman(12, 0.5, 0.2, &mut rng);
        let c = quick_pipeline().compile(&g).expect("waxman compiles");
        assert_eq!(c.metrics.emissions, 12);
    }

    #[test]
    fn lc_inverse_roundtrip_via_verification() {
        // A complete graph forces the partitioner to use LC; verification
        // inside compile() then proves append_lc_inverse is correct.
        let p = Pipeline::new(FrameworkConfig {
            partition: epgs_partition::PartitionSpec {
                g_max: 3,
                lc_budget: 5,
                effort: 6,
                seed: 2,
                ..Default::default()
            },
            orderings_per_subgraph: 4,
            ..Default::default()
        });
        let c = p.compile(&generators::complete(6)).expect("K6 compiles");
        assert!(
            !c.partition.lc_sequence.is_empty(),
            "K6 partition should use LC"
        );
    }

    #[test]
    fn budget_override_changes_pool() {
        let p = quick_pipeline();
        let g = generators::lattice(3, 4);
        let a = compile_at(&p, &g, 3);
        let b = compile_at(&p, &g, 6);
        assert_eq!(a.ne_limit, 3);
        assert_eq!(b.ne_limit, 6);
        // More emitters must not hurt the makespan estimate.
        assert!(b.schedule.makespan <= a.schedule.makespan + 1e-9);
    }

    #[test]
    fn single_block_graph_skips_stem() {
        // Fits one block: no cut, no LC required.
        let c = quick_pipeline().compile(&generators::path(5)).unwrap();
        assert_eq!(c.partition.cut, 0);
        assert_eq!(c.metrics.ee_two_qubit_count, 0, "path in one block");
    }

    #[test]
    fn counters_track_stage_executions() {
        let p = quick_pipeline();
        let g = generators::tree(10, 2);
        let planned = p.partition(&g).plan_leaves().unwrap();
        for budget in [1, 2, 3] {
            planned
                .schedule(budget)
                .recombine()
                .unwrap()
                .verify()
                .unwrap();
        }
        let c = p.counters();
        assert_eq!(c.partition, 1);
        assert_eq!(c.plan, 1);
        assert_eq!(c.schedule, 3);
        assert_eq!(c.recombine, 3);
        assert_eq!(c.verify, 3);
    }

    #[test]
    fn sweep_plans_once_and_schedules_per_budget() {
        let p = quick_pipeline();
        let g = generators::lattice(3, 4);
        let planned = p.partition(&g).plan_leaves().unwrap();
        let compiled: Vec<Compiled> = [2, 3, 4]
            .iter()
            .map(|&b| planned.schedule(b).recombine().unwrap().verify().unwrap())
            .collect();
        let c = p.counters();
        assert_eq!((c.partition, c.plan), (1, 1));
        assert_eq!(c.schedule, 3);
        // Budgets land in the artifacts in order.
        assert_eq!(
            compiled.iter().map(|c| c.ne_limit).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn ne_min_of_known_families() {
        assert_eq!(ne_min_of(&generators::path(6)), 1);
        // Any prefix cut of a complete graph has rank 1: one emitter suffices.
        assert_eq!(ne_min_of(&generators::complete(5)), 1);
        assert!(ne_min_of(&generators::lattice(3, 4)) >= 2);
        assert_eq!(ne_min_of(&Graph::new(0)), 1, "degenerate floor");
    }
}
