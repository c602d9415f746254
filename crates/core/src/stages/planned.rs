//! Stage 2 artifact: per-leaf compilation plans (paper §IV.B).

use std::sync::Arc;

use rayon::prelude::*;

use epgs_graph::{ops, Graph};
use epgs_partition::Partition;

use crate::error::FrameworkError;
use crate::schedule::{schedule, Schedule};
use crate::stages::partitioned::Partitioned;
use crate::stages::scheduled::Scheduled;
use crate::stages::Shared;
use crate::subgraph::{compile_subgraph, SubgraphPlan};

/// Base seed of the randomized leaf solves; block `i` solves under
/// `LEAF_SEED + i` (plus a per-refinement offset).
const LEAF_SEED: u64 = 0xec05;

/// Partition plus plans, shared immutably by every schedule derived from it.
#[derive(Debug)]
pub(crate) struct PlannedData {
    pub(crate) partition: Partition,
    pub(crate) plans: Vec<SubgraphPlan>,
    pub(crate) ne_min: usize,
}

/// Every leaf subgraph compiled near-optimally to one circuit, plus the
/// block-locally refined partition.
///
/// This is the expensive prefix of the pipeline — the artifact to keep when
/// sweeping emitter budgets. [`Planned::schedule`] takes `&self`, so any
/// number of budgets can be scheduled off one plan:
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
/// let planned = pipeline.partition(&generators::tree(9, 2)).plan_leaves()?;
/// assert!(!planned.plans().is_empty());
/// let tight = planned.schedule(1);
/// let loose = planned.schedule(4);
/// assert!(loose.schedule().makespan <= tight.schedule().makespan + 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Planned {
    pub(crate) shared: Arc<Shared>,
    pub(crate) target: Arc<Graph>,
    pub(crate) data: Arc<PlannedData>,
}

impl Planned {
    pub(crate) fn build(stage: &Partitioned) -> Result<Self, FrameworkError> {
        let shared = Arc::clone(&stage.shared);
        let cfg = &shared.config;
        let mut partition = stage.partition_clone();

        let blocks: Vec<Vec<usize>> = partition
            .blocks()
            .into_iter()
            .filter(|b| !b.is_empty())
            .collect();

        let compile_block = |graph: &Graph,
                             block: &[usize],
                             i: usize,
                             seed_extra: u64|
         -> Result<SubgraphPlan, FrameworkError> {
            let (sub, vertices) = graph.induced_subgraph(block);
            compile_subgraph(
                &sub,
                &vertices,
                &cfg.hardware,
                &cfg.objective,
                cfg.orderings_per_subgraph,
                LEAF_SEED.wrapping_add(i as u64).wrapping_add(seed_extra),
            )
            .map_err(FrameworkError::from)
        };

        // Initial compile of every leaf, in parallel. Interior-vertex LC
        // refinements (below) never touch another block's induced subgraph,
        // so these solves are independent of the refinement order and the
        // result is identical to the sequential interleaving.
        let mut plans: Vec<SubgraphPlan> = {
            let transformed = &partition.transformed;
            (0..blocks.len())
                .into_par_iter()
                .map(|i| compile_block(transformed, &blocks[i], i, 0))
                .collect::<Result<Vec<_>, FrameworkError>>()?
        };

        // Block-local LC refinement at *interior* vertices (no cut edges),
        // where subgraph-level local complementation coincides with the
        // global one: fewer intra-block edges → fewer emitter-emitter CNOTs.
        //
        // An interior LC only toggles edges *inside its own block*, so each
        // block's accept/reject chain is independent of every other block —
        // the blocks are evaluated speculatively in parallel, each walking
        // its own working graph by apply/undo (LC is self-inverse at a fixed
        // vertex) instead of cloning the whole transformed graph per trial.
        // The one cross-block coupling is the global LC budget, enforced by
        // a sequential acceptance replay in block order below; a block's
        // accepted chain is truncated to whatever budget is actually left
        // when its turn comes, which reproduces the sequential loop's
        // stop-at-budget behavior decision for decision.
        let budget_left = cfg
            .partition
            .lc_budget
            .saturating_sub(partition.lc_sequence.len());
        if budget_left > 0 {
            let transformed = &partition.transformed;
            let plans_ref = &plans;
            let accepted: Vec<Vec<(usize, SubgraphPlan)>> = (0..blocks.len())
                .into_par_iter()
                .map(|i| {
                    let block = &blocks[i];
                    let in_block: std::collections::BTreeSet<usize> =
                        block.iter().copied().collect();
                    let interior: Vec<usize> = block
                        .iter()
                        .copied()
                        .filter(|&v| {
                            transformed.degree(v) >= 2
                                && transformed
                                    .neighbors(v)
                                    .iter()
                                    .all(|w| in_block.contains(w))
                        })
                        .collect();
                    let mut work = transformed.clone();
                    let mut cur_ee = plans_ref[i].ee_cnots;
                    let mut out: Vec<(usize, SubgraphPlan)> = Vec::new();
                    for &v in &interior {
                        if out.len() >= budget_left {
                            break;
                        }
                        let edges_before = work.edge_count();
                        ops::local_complement(&mut work, v).expect("vertex in range");
                        // Densifying LCs help a single leaf but hurt the
                        // global solve; only keep transforms that also shed
                        // edges.
                        if work.edge_count() > edges_before {
                            ops::local_complement(&mut work, v).expect("vertex in range");
                            continue;
                        }
                        match compile_block(&work, block, i, 1 + v as u64) {
                            Ok(candidate) if candidate.ee_cnots < cur_ee => {
                                cur_ee = candidate.ee_cnots;
                                out.push((v, candidate));
                            }
                            _ => {
                                ops::local_complement(&mut work, v).expect("vertex in range");
                            }
                        }
                    }
                    out
                })
                .collect();
            for (i, chain) in accepted.into_iter().enumerate() {
                for (v, candidate) in chain {
                    if partition.lc_sequence.len() >= cfg.partition.lc_budget {
                        break;
                    }
                    ops::local_complement(&mut partition.transformed, v).expect("vertex in range");
                    partition.lc_sequence.push(v);
                    plans[i] = candidate;
                }
            }
        }
        partition.cut = partition.recompute_cut();

        shared
            .counters
            .plan
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(Planned {
            shared,
            target: Arc::clone(&stage.target),
            data: Arc::new(PlannedData {
                partition,
                plans,
                ne_min: stage.ne_min(),
            }),
        })
    }

    /// The original target graph.
    pub fn target(&self) -> &Graph {
        &self.target
    }

    /// The partition after block-local LC refinement.
    pub fn partition(&self) -> &Partition {
        &self.data.partition
    }

    /// Per-block compilation plans, aligned with
    /// [`Partition::blocks`](epgs_partition::Partition::blocks) (empty
    /// blocks dropped).
    pub fn plans(&self) -> &[SubgraphPlan] {
        &self.data.plans
    }

    /// Minimal emitter count `Ne_min` of the target.
    pub fn ne_min(&self) -> usize {
        self.data.ne_min
    }

    /// Resolves the configured [`EmitterBudget`](crate::EmitterBudget)
    /// against this target's `Ne_min`.
    pub fn configured_budget(&self) -> usize {
        self.shared.config.emitter_budget.resolve(self.data.ne_min)
    }

    /// Stage 3: packs the leaf circuits as-late-as-possible under
    /// `ne_limit` emitters (paper §IV.C). `ne_limit` is clamped to at
    /// least 1.
    pub fn schedule(&self, ne_limit: usize) -> Scheduled {
        let ne_limit = ne_limit.max(1);
        let sched: Schedule = schedule(&self.data.plans, ne_limit);
        self.shared
            .counters
            .schedule
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Scheduled::new(self, sched, ne_limit)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{quick_config, FrameworkConfig};
    use crate::stages::Pipeline;
    use epgs_graph::generators;
    use epgs_partition::PartitionSpec;

    fn pipeline() -> Pipeline {
        Pipeline::new(quick_config())
    }

    #[test]
    fn plans_align_with_blocks_and_cover_all_vertices() {
        let p = pipeline();
        let planned = p
            .partition(&generators::lattice(3, 4))
            .plan_leaves()
            .unwrap();
        let mut covered: Vec<usize> = planned
            .plans()
            .iter()
            .flat_map(|plan| plan.vertices.iter().copied())
            .collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn replanning_from_cached_partitioned_is_reproducible() {
        let p = pipeline();
        let partitioned = p.partition(&generators::cycle(12));
        let a = partitioned.plan_leaves().unwrap();
        let b = partitioned.plan_leaves().unwrap();
        assert_eq!(a.partition(), b.partition());
        assert_eq!(a.plans().len(), b.plans().len());
        for (x, y) in a.plans().iter().zip(b.plans()) {
            assert_eq!(x.vertices, y.vertices);
            assert_eq!(x.solved.circuit, y.solved.circuit);
            assert_eq!(x.solved.emitters, y.solved.emitters);
        }
        assert_eq!(p.counters().plan, 2, "both runs really executed");
    }

    #[test]
    fn refinement_never_exceeds_global_lc_budget() {
        let p = Pipeline::new(FrameworkConfig {
            partition: PartitionSpec {
                g_max: 3,
                lc_budget: 5,
                effort: 6,
                ..Default::default()
            },
            ..Default::default()
        });
        let planned = p.partition(&generators::complete(6)).plan_leaves().unwrap();
        assert!(planned.partition().lc_sequence.len() <= 5);
        assert_eq!(planned.partition().cut, planned.partition().recompute_cut());
    }
}
