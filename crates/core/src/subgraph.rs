//! Per-subgraph compilation (paper §IV.B).
//!
//! Each leaf subgraph is small (≤ g_max), so near-optimal circuits are found
//! by explicit search: candidate emission orderings (the low-degree-first DFS
//! heuristic, BFS, natural, and connectivity-respecting random samples) are
//! ranked by the height-function cost estimate, the best few are compiled
//! for real, and the winner minimizes the configured
//! [`CompileObjective`] — under the paper's default that is the
//! lexicographic (#ee-CNOT, `T_loss`, duration) order.
//!
//! Each leaf keeps exactly one circuit. The paper also recompiles the
//! chosen ordering at `ne_min + 1 … ne_min + slack` emitters so the
//! scheduler can trade emitters for parallelism (§IV.C); those flexible
//! variants were measured here and dropped. Such a recompile reuses the
//! base ordering with a larger fixed pool. An extra idle emitter is the
//! last of its weight tier (the `grow_pool` equivalence in
//! `epgs_solver::reverse`), so it is picked only when every other emitter
//! is busy, which never happens in a solve that finished within the base
//! pool, and idle wires stay gate-free. All 170 flexible variants of the
//! 85 paper-sweep leaves, and all 55 of the 20 default-corpus targets, had
//! the base circuit's gates and usage curve.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use epgs_circuit::{metrics::timed_metrics, timeline, CircuitMetrics};
use epgs_graph::Graph;
use epgs_hardware::{CompileObjective, HardwareModel, ObjectiveScore};
use epgs_solver::cost::{rank_orderings_weighted, CostWeights};
use epgs_solver::reverse::{solve_with_ordering_in, SolveOptions, Solved, SolverWorkspace};
use epgs_solver::{ordering, SolverError};

/// The compilation result for one subgraph: the chosen ordering's compiled
/// circuit and the timing the scheduler packs it by.
#[derive(Debug, Clone)]
pub struct SubgraphPlan {
    /// Map from local photon index to the parent graph's vertex id.
    pub vertices: Vec<usize>,
    /// The compiled circuit (local photon indices `0..k`) and its emitter
    /// count `solved.emitters`.
    pub solved: Solved,
    /// Circuit duration in τ.
    pub duration: f64,
    /// Emitter-emitter CNOT count.
    pub ee_cnots: usize,
    /// Mean photon storage time.
    pub t_loss: f64,
    /// ALAP emission time of each local photon.
    pub emission_times: Vec<f64>,
    /// Emitter-usage step curve `(times, counts)`.
    pub usage: (Vec<f64>, Vec<usize>),
}

impl SubgraphPlan {
    /// Number of photons in the subgraph.
    pub fn photon_count(&self) -> usize {
        self.vertices.len()
    }

    /// Scheduling priority `P_c = n_p / T_c` (§IV.C).
    pub fn priority(&self) -> f64 {
        if self.duration <= 0.0 {
            f64::INFINITY
        } else {
            self.photon_count() as f64 / self.duration
        }
    }
}

/// Compiles one subgraph.
///
/// `sub` uses local indices; `vertices[local] = parent vertex id`.
///
/// # Errors
///
/// Propagates solver failures (which, given automatic pool growth, indicate
/// an internal bug rather than an input condition).
pub fn compile_subgraph(
    sub: &Graph,
    vertices: &[usize],
    hw: &HardwareModel,
    objective: &CompileObjective,
    orderings_budget: usize,
    seed: u64,
) -> Result<SubgraphPlan, SolverError> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Candidate orderings: deterministic heuristics + random connected.
    let mut candidates: Vec<Vec<usize>> = vec![
        ordering::degree_dfs(sub),
        ordering::bfs(sub),
        ordering::natural(sub),
    ];
    for _ in 0..orderings_budget.saturating_sub(candidates.len()) {
        candidates.push(ordering::random_connected(sub, &mut rng));
    }
    candidates.sort();
    candidates.dedup();
    // Rank by the cheap estimate and keep the most promising half (at least
    // the three deterministic ones). The pruning weights are the solver's
    // objective hook: the Emitters objective weights emitters and stalls
    // evenly (the paper's ranking, preserved bit for bit); the Duration
    // objective punishes stalls, which serialize the timeline.
    rank_orderings_weighted(sub, &mut candidates, &pruning_weights(objective));
    candidates.truncate(orderings_budget.max(3).div_ceil(2).max(3));

    // Compile every candidate at ne_min, candidates in parallel with one
    // solver workspace per worker; keep the objective's minimum. The winner
    // is the lowest (score, candidate index) — ties break toward the
    // earlier candidate, exactly like the sequential strict-less loop — so
    // the parallel search is bit-identical to the sequential one.
    let solve_opts = SolveOptions::default();
    let evaluated: Vec<Option<(SubgraphPlan, ObjectiveScore)>> = (0..candidates.len())
        .into_par_iter()
        .map_init(SolverWorkspace::new, |ws, i| {
            let solved = solve_with_ordering_in(ws, sub, &candidates[i], &solve_opts).ok()?;
            let (plan, metrics) = make_plan(hw, vertices, solved);
            let score = objective.score(&metrics.objective_figures());
            Some((plan, score))
        })
        .collect();
    let mut best: Option<(SubgraphPlan, ObjectiveScore)> = None;
    for (plan, score) in evaluated.into_iter().flatten() {
        if best.as_ref().is_none_or(|(_, b)| score < *b) {
            best = Some((plan, score));
        }
    }
    best.map(|(plan, _)| plan)
        .ok_or_else(|| SolverError::NoCompilableOrdering {
            photons: sub.vertex_count(),
            candidates: candidates.len(),
        })
}

/// Ordering-pruning weights for an objective: even weights when
/// minimizing ee-CNOTs (the paper's ranking), stall-heavy weights when
/// the objective is duration, because stalls serialize the timeline.
fn pruning_weights(objective: &CompileObjective) -> CostWeights {
    match objective {
        CompileObjective::Emitters => CostWeights::default(),
        CompileObjective::Duration => CostWeights::duration_focused(),
    }
}

/// Builds a plan and hands back the metrics it was derived from, so the
/// caller scores it without a second metrics pass.
fn make_plan(
    hw: &HardwareModel,
    vertices: &[usize],
    solved: Solved,
) -> (SubgraphPlan, CircuitMetrics) {
    let tl = timeline(hw, &solved.circuit);
    let usage = tl.usage_curve(&solved.circuit);
    let m = timed_metrics(hw, &solved.circuit, &tl, &usage.1);
    let plan = SubgraphPlan {
        vertices: vertices.to_vec(),
        duration: tl.duration,
        ee_cnots: m.ee_two_qubit_count,
        t_loss: m.t_loss,
        emission_times: tl.emission_time,
        usage,
        solved,
    };
    (plan, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::generators;
    use epgs_solver::reverse::solve_with_ordering;

    fn hw() -> HardwareModel {
        HardwareModel::quantum_dot()
    }

    #[test]
    fn path_subgraph_compiles_optimally() {
        let sub = generators::path(6);
        let vertices: Vec<usize> = (10..16).collect();
        let plan =
            compile_subgraph(&sub, &vertices, &hw(), &CompileObjective::Emitters, 6, 1).unwrap();
        assert_eq!(plan.photon_count(), 6);
        assert_eq!(plan.ee_cnots, 0, "paths need no ee-CNOTs");
        assert_eq!(plan.solved.emitters, 1);
    }

    #[test]
    fn emission_times_cover_all_photons() {
        let sub = generators::cycle(5);
        let plan = compile_subgraph(
            &sub,
            &[0, 1, 2, 3, 4],
            &hw(),
            &CompileObjective::Emitters,
            6,
            2,
        )
        .unwrap();
        assert_eq!(plan.emission_times.len(), 5);
        assert!(plan
            .emission_times
            .iter()
            .all(|&t| t <= plan.duration + 1e-9));
    }

    #[test]
    fn priority_favors_many_photons_short_duration() {
        let short = compile_subgraph(
            &generators::path(5),
            &[0, 1, 2, 3, 4],
            &hw(),
            &CompileObjective::Emitters,
            4,
            3,
        )
        .unwrap();
        let long = compile_subgraph(
            &generators::complete(5),
            &[5, 6, 7, 8, 9],
            &hw(),
            &CompileObjective::Emitters,
            4,
            3,
        )
        .unwrap();
        // Same photon count; the path compiles to a shorter circuit, so its
        // priority must be higher.
        assert!(short.priority() > long.priority());
    }

    #[test]
    fn search_beats_or_matches_natural_order_on_star() {
        let sub = generators::star(6);
        let plan = compile_subgraph(
            &sub,
            &[0, 1, 2, 3, 4, 5],
            &hw(),
            &CompileObjective::Emitters,
            8,
            4,
        )
        .unwrap();
        let natural =
            solve_with_ordering(&sub, &ordering::natural(&sub), &SolveOptions::default()).unwrap();
        assert!(epgs_circuit::simulate::verify_circuit(&natural.circuit, &sub).unwrap());
        assert!(plan.ee_cnots <= natural.circuit.ee_two_qubit_count());
    }

    #[test]
    fn single_vertex_subgraph() {
        let sub = Graph::new(1);
        let plan = compile_subgraph(&sub, &[3], &hw(), &CompileObjective::Emitters, 2, 5).unwrap();
        assert_eq!(plan.photon_count(), 1);
        assert_eq!(plan.solved.circuit.emission_count(), 1);
    }
}
