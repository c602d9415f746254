//! Stage 4 artifact: the recombined global circuit (paper §IV.D) and the
//! pluggable recombination strategies.

use std::sync::Arc;

use epgs_circuit::{circuit_metrics, simulate, Circuit, CircuitMetrics};
use epgs_graph::{height, Graph};
use epgs_hardware::{CompileObjective, LossReport};
use epgs_partition::Partition;
use epgs_solver::baseline::append_lc_inverse;
use epgs_solver::reverse::{solve_with_ordering_in, Affinity, SolveOptions, SolverWorkspace};
use epgs_solver::{ordering, SolverError};
use rayon::prelude::*;

use crate::error::FrameworkError;
use crate::schedule::{Placement, Schedule};
use crate::stages::planned::PlannedData;
use crate::stages::scheduled::Scheduled;
use crate::stages::Shared;
use crate::subgraph::SubgraphPlan;

/// How the scheduled leaf circuits are recombined into one global circuit.
///
/// Every strategy's candidate solves run on the worker pool and compete
/// under the configured [`CompileObjective`] (the default,
/// [`CompileObjective::Emitters`], is the paper's lexicographic #ee-CNOT,
/// then `T_loss`, then duration order; see
/// [`crate::FrameworkConfig::objective`]); ties keep candidate order, so
/// the winner does not depend on the thread count.
/// [`Scheduled::recombine`] runs [`RecombineStrategy::all`] — scheduled
/// interleave, block-sequential, direct solve — letting the framework
/// degenerate gracefully when partitioning does not pay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecombineStrategy {
    /// One global time-reversed solve over the transformed graph in the
    /// schedule-induced interleaved emission order, with the schedule's
    /// emitter affinity (overlapping blocks on disjoint emitters).
    ScheduledInterleave,
    /// The same global solve with blocks emitted back-to-back in schedule
    /// start order — no interleaving friction, same emitter affinity.
    BlockSequential,
    /// A direct whole-graph solve of the *original* target (no partition,
    /// no LC) over the deterministic ordering heuristics.
    ///
    /// Its starting pool depends on the other strategies. Next to a
    /// schedule strategy it starts at the schedule's shared pool,
    /// `ne_limit` raised to the interleaved ordering's height-function
    /// demand; alone it starts at `ne_limit`. On lattice-20, -28, -36 and
    /// -44, lattice-10×10 and heavy-hex-3×4 the full race therefore returns
    /// a DirectSolve circuit that no single strategy produces: the same
    /// ee-CNOTs, but more declared emitters (31 instead of 15 on
    /// lattice-10×10, both with 90 ee-CNOTs). Attribution by strategy
    /// inherits this.
    DirectSolve,
}

impl RecombineStrategy {
    /// All strategies in the default competition order.
    pub fn all() -> Vec<RecombineStrategy> {
        vec![
            RecombineStrategy::ScheduledInterleave,
            RecombineStrategy::BlockSequential,
            RecombineStrategy::DirectSolve,
        ]
    }
}

/// The best recombined circuit, pre-verification.
///
/// Produced by [`Scheduled::recombine`]; [`Recombined::verify`] closes the
/// pipeline. The artifact records which strategy won, which makes the
/// degenerate-partition case observable:
///
/// ```
/// use epgs::{FrameworkConfig, PartitionSpec, Pipeline, RecombineStrategy};
/// use epgs_graph::generators;
///
/// # fn main() -> Result<(), epgs::FrameworkError> {
/// let pipeline = Pipeline::new(FrameworkConfig {
///     partition: PartitionSpec { g_max: 4, ..Default::default() },
///     ..Default::default()
/// });
/// let recombined = pipeline
///     .partition(&generators::path(6))
///     .plan_leaves()?
///     .schedule(2)
///     .recombine()?;
/// assert_eq!(recombined.circuit().emission_count(), 6);
/// assert!(RecombineStrategy::all().contains(&recombined.strategy()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Recombined {
    pub(crate) shared: Arc<Shared>,
    pub(crate) target: Arc<Graph>,
    pub(crate) data: Arc<PlannedData>,
    pub(crate) sched: Schedule,
    pub(crate) ne_limit: usize,
    circuit: Circuit,
    metrics: CircuitMetrics,
    global_ordering: Vec<usize>,
    strategy: RecombineStrategy,
    objective: CompileObjective,
}

impl Recombined {
    pub(crate) fn build(
        stage: &Scheduled,
        strategies: &[RecombineStrategy],
    ) -> Result<Self, FrameworkError> {
        let shared = Arc::clone(&stage.shared);
        let cfg = &shared.config;
        let objective = &cfg.objective;
        let data = &stage.data;
        let plans = &data.plans;
        let partition = &data.partition;
        let target: &Graph = &stage.target;
        let sched = &stage.sched;
        let ne_limit = stage.ne_limit;

        // The schedule induces the interleaved global emission ordering; the
        // affinity maps each block onto the concrete emitters the schedule
        // reserved for it, so overlapping blocks use disjoint emitters
        // (parallel in time) while each block's internal work stays
        // emitter-local. Both are only needed by the schedule-driven
        // strategies; a DirectSolve-only run skips their construction (and
        // its pool is sized by the direct orderings alone).
        let global_ordering = sched.global_ordering(plans);
        let uses_schedule = strategies.iter().any(|s| {
            matches!(
                s,
                RecombineStrategy::ScheduledInterleave | RecombineStrategy::BlockSequential
            )
        });
        let (pool, affinity) = if uses_schedule {
            let needed = height::min_emitters(&partition.transformed, &global_ordering).max(1);
            let pool = ne_limit.max(needed);
            let affinity = build_affinity(sched, plans, pool, partition.transformed.vertex_count());
            (pool, Some(affinity))
        } else {
            (ne_limit, None)
        };

        // (graph, ordering, affinity, LC sequence to undo) per candidate.
        type Candidate<'a> = (&'a Graph, Vec<usize>, Option<Affinity>, &'a [usize]);
        let mut candidates: Vec<(RecombineStrategy, Candidate)> = Vec::new();
        for &strategy in strategies {
            match strategy {
                RecombineStrategy::ScheduledInterleave => candidates.push((
                    strategy,
                    (
                        &partition.transformed,
                        global_ordering.clone(),
                        affinity.clone(),
                        &partition.lc_sequence,
                    ),
                )),
                RecombineStrategy::BlockSequential => candidates.push((
                    strategy,
                    (
                        &partition.transformed,
                        sequential_ordering(sched, plans),
                        affinity.clone(),
                        &partition.lc_sequence,
                    ),
                )),
                RecombineStrategy::DirectSolve => {
                    for ord in [
                        ordering::degree_dfs(target),
                        ordering::natural(target),
                        ordering::bfs(target),
                    ] {
                        candidates.push((strategy, (target, ord, None, &[])));
                    }
                }
            }
        }
        if candidates.is_empty() {
            return Err(FrameworkError::NoRecombineStrategy);
        }

        let results: Vec<Result<_, SolverError>> = candidates
            .into_par_iter()
            .map_init(
                SolverWorkspace::new,
                |ws, (strategy, (graph, ord, aff, lc_seq))| {
                    // Each candidate sizes its own pool: the shared budget, raised
                    // to that ordering's height-function demand.
                    let candidate_pool = pool.max(height::min_emitters(graph, &ord).max(1));
                    let opts = SolveOptions {
                        emitters: Some(candidate_pool),
                        max_pool_growth: 8,
                        affinity: aff,
                        ..SolveOptions::default()
                    };
                    let mut circuit = solve_with_ordering_in(ws, graph, &ord, &opts)?.circuit;
                    // Undo the LC sequence with single-qubit photon gates so the
                    // circuit delivers |target⟩, not |transformed⟩.
                    append_lc_inverse(&mut circuit, target, lc_seq);
                    let score = objective
                        .score(&circuit_metrics(&cfg.hardware, &circuit).objective_figures());
                    Ok((strategy, circuit, score))
                },
            )
            .collect();
        // Reduce in candidate order with a strict `<`, so a tie keeps the
        // earlier candidate whatever order the workers finished in.
        let mut best: Option<(RecombineStrategy, Circuit, epgs_hardware::ObjectiveScore)> = None;
        let mut last_err = None;
        for result in results {
            match result {
                Ok((strategy, circuit, score)) => {
                    if best.as_ref().is_none_or(|(_, _, b)| score < *b) {
                        best = Some((strategy, circuit, score));
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        let (strategy, mut circuit, _) = best.ok_or_else(|| {
            FrameworkError::from(last_err.expect("at least one candidate attempted"))
        })?;
        // Peephole cleanup: the reverse solver's rotation bookkeeping leaves
        // cancellable single-qubit pairs behind.
        epgs_circuit::optimize::cancel_inverse_pairs(&mut circuit);
        let metrics = circuit_metrics(&cfg.hardware, &circuit);
        let objective = *objective;

        shared
            .counters
            .recombine
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(Recombined {
            shared,
            target: Arc::clone(&stage.target),
            data: Arc::clone(&stage.data),
            sched: stage.sched.clone(),
            ne_limit,
            circuit,
            metrics,
            global_ordering,
            strategy,
            objective,
        })
    }

    /// The recombined generation circuit (after peephole cleanup).
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Metrics of [`Recombined::circuit`].
    pub fn metrics(&self) -> &CircuitMetrics {
        &self.metrics
    }

    /// The strategy whose candidate won the competition.
    pub fn strategy(&self) -> RecombineStrategy {
        self.strategy
    }

    /// The objective the competition minimized.
    pub fn objective(&self) -> &CompileObjective {
        &self.objective
    }

    /// Stage 5: checks the circuit against the original target with the
    /// stabilizer simulator and assembles the final [`Compiled`] artifact.
    ///
    /// Consumes the artifact so the circuit and schedule move (not clone)
    /// into the result; `clone()` the `Recombined` first to keep it.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::VerificationFailed`] if the circuit does not
    /// regenerate the target — an internal bug by definition.
    pub fn verify(self) -> Result<Compiled, FrameworkError> {
        let ok = simulate::verify_circuit(&self.circuit, &self.target)
            .map_err(|_| FrameworkError::VerificationFailed)?;
        if !ok {
            return Err(FrameworkError::VerificationFailed);
        }
        self.shared
            .counters
            .verify
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Shared plan data moves too when this was its last reference
        // (one-shot compiles); sweeps keep the artifact alive and clone.
        let (partition, plans, ne_min) = match Arc::try_unwrap(self.data) {
            Ok(data) => (data.partition, data.plans, data.ne_min),
            Err(data) => (data.partition.clone(), data.plans.clone(), data.ne_min),
        };
        Ok(Compiled {
            target: self.target,
            circuit: self.circuit,
            metrics: self.metrics,
            partition,
            plans,
            schedule: self.sched,
            global_ordering: self.global_ordering,
            ne_limit: self.ne_limit,
            ne_min,
            strategy: self.strategy,
            objective: self.objective,
        })
    }
}

/// Everything the pipeline produces for one target graph state: the
/// artifact [`Recombined::verify`] closes the pipeline with.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The target graph stage 5 verified `circuit` against, shared with
    /// the earlier stage artifacts rather than copied.
    pub target: Arc<Graph>,
    /// The verified generation circuit for the *original* target.
    pub circuit: Circuit,
    /// Evaluation metrics of `circuit`.
    pub metrics: CircuitMetrics,
    /// The partition (with LC sequence) that was used.
    pub partition: Partition,
    /// Per-subgraph compilation plans, aligned with `partition.blocks()`.
    pub plans: Vec<SubgraphPlan>,
    /// The Tetris schedule of the subgraph circuits.
    pub schedule: Schedule,
    /// The interleaved global emission ordering (transformed-graph vertices).
    pub global_ordering: Vec<usize>,
    /// Emitter budget Ne_limit that was resolved for this target.
    pub ne_limit: usize,
    /// Minimal emitter count Ne_min of the target (best known ordering).
    pub ne_min: usize,
    /// The recombination strategy whose candidate won.
    pub strategy: RecombineStrategy,
    /// The objective candidate circuits competed under.
    pub objective: CompileObjective,
}

impl Compiled {
    /// Per-photon and aggregate loss figures of the chosen circuit under
    /// the configured hardware model (shorthand for `metrics.loss`).
    pub fn loss_report(&self) -> &LossReport {
        &self.metrics.loss
    }
}

/// The schedule-ordered block-sequential emission ordering: blocks sorted by
/// absolute start time, each block's photons in its solved local order.
fn sequential_ordering(sched: &Schedule, plans: &[SubgraphPlan]) -> Vec<usize> {
    let mut placements: Vec<&Placement> = sched.placements.iter().collect();
    placements.sort_by(|a, b| {
        sched
            .start_time(a, plans)
            .total_cmp(&sched.start_time(b, plans))
    });
    let mut out = Vec::new();
    for p in placements {
        let plan = &plans[p.block];
        for &local in &plan.solved.ordering {
            out.push(plan.vertices[local]);
        }
    }
    out
}

/// Assigns concrete emitters to each scheduled block: blocks are processed
/// by start time and greedily take the emitters that free up earliest, so
/// time-overlapping blocks end up on disjoint sets whenever the budget
/// allows (mirroring the schedule's usage packing).
fn build_affinity(
    sched: &Schedule,
    plans: &[SubgraphPlan],
    pool: usize,
    photons: usize,
) -> Affinity {
    let mut photon_group = vec![0usize; photons];
    for p in &sched.placements {
        for &global in &plans[p.block].vertices {
            photon_group[global] = p.block;
        }
    }
    // Sort placements by absolute start time.
    let mut order: Vec<&Placement> = sched.placements.iter().collect();
    order.sort_by(|a, b| {
        sched
            .start_time(a, plans)
            .total_cmp(&sched.start_time(b, plans))
    });
    let mut busy_until = vec![f64::NEG_INFINITY; pool];
    let mut group_emitters = vec![Vec::new(); plans.len()];
    for p in order {
        let start = sched.start_time(p, plans);
        let plan = &plans[p.block];
        let end = start + plan.duration;
        let demand = plan.solved.emitters.min(pool).max(1);
        // Emitters free at `start` first, then the earliest to free up.
        let mut candidates: Vec<usize> = (0..pool).collect();
        candidates.sort_by(|&a, &b| busy_until[a].total_cmp(&busy_until[b]).then(a.cmp(&b)));
        let chosen: Vec<usize> = candidates.into_iter().take(demand).collect();
        for &e in &chosen {
            busy_until[e] = busy_until[e].max(end);
        }
        group_emitters[p.block] = chosen;
    }
    Affinity {
        photon_group,
        group_emitters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::quick_config;
    use crate::stages::Pipeline;
    use epgs_graph::generators;

    fn pipeline() -> Pipeline {
        Pipeline::new(quick_config())
    }

    #[test]
    fn default_strategies_match_explicit_all() {
        let p = pipeline();
        let g = generators::lattice(3, 3);
        let scheduled = p.partition(&g).plan_leaves().unwrap().schedule(3);
        let a = scheduled.recombine().unwrap();
        let b = scheduled.recombine_with(&RecombineStrategy::all()).unwrap();
        assert_eq!(a.circuit(), b.circuit());
        assert_eq!(a.strategy(), b.strategy());
    }

    #[test]
    fn single_strategy_runs_alone() {
        let p = pipeline();
        let g = generators::tree(9, 2);
        let scheduled = p.partition(&g).plan_leaves().unwrap().schedule(2);
        for strategy in RecombineStrategy::all() {
            let r = scheduled.recombine_with(&[strategy]).unwrap();
            assert_eq!(r.strategy(), strategy);
            assert_eq!(r.circuit().emission_count(), 9, "{strategy:?}");
            // Every single-strategy circuit must itself verify.
            r.verify().unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        }
    }

    #[test]
    fn empty_strategy_list_is_an_error() {
        let p = pipeline();
        let scheduled = p
            .partition(&generators::path(5))
            .plan_leaves()
            .unwrap()
            .schedule(1);
        assert!(matches!(
            scheduled.recombine_with(&[]),
            Err(FrameworkError::NoRecombineStrategy)
        ));
    }

    #[test]
    fn restricted_strategies_never_beat_the_full_competition() {
        let p = pipeline();
        let g = generators::lattice(3, 4);
        let scheduled = p.partition(&g).plan_leaves().unwrap().schedule(3);
        let full = scheduled.recombine().unwrap();
        for strategy in RecombineStrategy::all() {
            let solo = scheduled.recombine_with(&[strategy]).unwrap();
            let solo_key = (
                solo.metrics().ee_two_qubit_count,
                solo.metrics().t_loss,
                solo.metrics().duration,
            );
            let full_key = (
                full.metrics().ee_two_qubit_count,
                full.metrics().t_loss,
                full.metrics().duration,
            );
            assert!(full_key <= solo_key, "{strategy:?} beat the competition");
        }
    }
}
