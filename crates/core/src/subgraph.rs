//! Per-subgraph compilation (paper §IV.B).
//!
//! Each leaf subgraph is small (≤ g_max), so near-optimal circuits are found
//! by explicit search: candidate emission orderings (the low-degree-first DFS
//! heuristic, BFS, natural, and connectivity-respecting random samples) are
//! ranked by the height-function cost estimate, the best few are compiled
//! for real, and the winner minimizes the configured
//! [`CompileObjective`] — under the paper's default that is the
//! lexicographic (#ee-CNOT, `T_loss`, duration) order. The
//! flexible-resource policy compiles every survivor at
//! `ne_min … ne_min + slack` emitters so the scheduler can trade emitters
//! for parallelism (§IV.C).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use epgs_circuit::{metrics::timed_metrics, timeline, CircuitMetrics};
use epgs_graph::Graph;
use epgs_hardware::{CompileObjective, HardwareModel, ObjectiveScore};
use epgs_solver::cost::{rank_orderings_weighted, CostWeights};
use epgs_solver::reverse::{solve_with_ordering_in, SolveOptions, Solved, SolverWorkspace};
use epgs_solver::{ordering, SolverError};

/// One compiled variant of a subgraph at a fixed emitter limit.
#[derive(Debug, Clone)]
pub struct SubgraphVariant {
    /// Emitters used by this variant.
    pub emitters: usize,
    /// The compiled circuit (local photon indices `0..k`).
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

/// The compilation result for one subgraph: the chosen ordering compiled at
/// several emitter limits (variants sorted by emitter count).
#[derive(Debug, Clone)]
pub struct SubgraphPlan {
    /// Map from local photon index to the parent graph's vertex id.
    pub vertices: Vec<usize>,
    /// Variants at `ne_min`, `ne_min+1`, … (at least one).
    pub variants: Vec<SubgraphVariant>,
}

impl SubgraphPlan {
    /// Number of photons in the subgraph.
    pub fn photon_count(&self) -> usize {
        self.vertices.len()
    }

    /// Scheduling priority `P_c = n_p / T_c` of the base variant (§IV.C).
    pub fn priority(&self) -> f64 {
        let base = &self.variants[0];
        if base.duration <= 0.0 {
            f64::INFINITY
        } else {
            self.photon_count() as f64 / base.duration
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
    flexible_slack: usize,
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
    let evaluated: Vec<Option<(SubgraphVariant, ObjectiveScore)>> = (0..candidates.len())
        .into_par_iter()
        .map_init(SolverWorkspace::new, |ws, i| {
            let solved = solve_with_ordering_in(ws, sub, &candidates[i], &solve_opts).ok()?;
            let (variant, metrics) = make_variant(hw, solved);
            let score = objective.score(&metrics.objective_figures());
            Some((variant, score))
        })
        .collect();
    let mut best: Option<(usize, SubgraphVariant, ObjectiveScore)> = None;
    for (i, entry) in evaluated.into_iter().enumerate() {
        let Some((variant, score)) = entry else {
            continue;
        };
        let better = match &best {
            None => true,
            Some((_, _, b)) => score < *b,
        };
        if better {
            best = Some((i, variant, score));
        }
    }
    let Some((chosen, base, _)) = best else {
        return Err(SolverError::NoCompilableOrdering {
            photons: sub.vertex_count(),
            candidates: candidates.len(),
        });
    };
    let chosen_ordering = &candidates[chosen];

    // Flexible resource constraint: recompile at ne_min+1 … ne_min+slack —
    // the extras are independent solves of the same ordering, evaluated in
    // parallel and kept in emitter order.
    let base_emitters = base.emitters;
    let mut variants = vec![base];
    let flexible: Vec<Option<SubgraphVariant>> = (1..flexible_slack + 1)
        .into_par_iter()
        .map_init(SolverWorkspace::new, |ws, extra| {
            let opts = SolveOptions {
                emitters: Some(base_emitters + extra),
                ..SolveOptions::default()
            };
            solve_with_ordering_in(ws, sub, chosen_ordering, &opts)
                .ok()
                .map(|solved| make_variant(hw, solved).0)
        })
        .collect();
    variants.extend(flexible.into_iter().flatten());
    Ok(SubgraphPlan {
        vertices: vertices.to_vec(),
        variants,
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

/// Builds a variant and hands back the metrics it was derived from, so
/// the caller scores it without a second metrics pass.
fn make_variant(hw: &HardwareModel, solved: Solved) -> (SubgraphVariant, CircuitMetrics) {
    let tl = timeline(hw, &solved.circuit);
    let usage = tl.usage_curve(&solved.circuit);
    let m = timed_metrics(hw, &solved.circuit, &tl, &usage.1);
    let variant = SubgraphVariant {
        emitters: solved.emitters,
        duration: tl.duration,
        ee_cnots: m.ee_two_qubit_count,
        t_loss: m.t_loss,
        emission_times: tl.emission_time,
        usage,
        solved,
    };
    (variant, m)
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
            compile_subgraph(&sub, &vertices, &hw(), &CompileObjective::Emitters, 6, 2, 1).unwrap();
        assert_eq!(plan.photon_count(), 6);
        assert_eq!(plan.variants[0].ee_cnots, 0, "paths need no ee-CNOTs");
        assert_eq!(plan.variants[0].emitters, 1);
        // Flexible variants exist at +1 and +2 emitters.
        assert!(plan.variants.len() >= 2);
        assert!(plan.variants[1].emitters > plan.variants[0].emitters);
    }

    #[test]
    fn variant_emission_times_cover_all_photons() {
        let sub = generators::cycle(5);
        let plan = compile_subgraph(
            &sub,
            &[0, 1, 2, 3, 4],
            &hw(),
            &CompileObjective::Emitters,
            6,
            1,
            2,
        )
        .unwrap();
        for v in &plan.variants {
            assert_eq!(v.emission_times.len(), 5);
            assert!(v.emission_times.iter().all(|&t| t <= v.duration + 1e-9));
        }
    }

    #[test]
    fn priority_favors_many_photons_short_duration() {
        let short = compile_subgraph(
            &generators::path(5),
            &[0, 1, 2, 3, 4],
            &hw(),
            &CompileObjective::Emitters,
            4,
            0,
            3,
        )
        .unwrap();
        let long = compile_subgraph(
            &generators::complete(5),
            &[5, 6, 7, 8, 9],
            &hw(),
            &CompileObjective::Emitters,
            4,
            0,
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
            0,
            4,
        )
        .unwrap();
        let natural =
            solve_with_ordering(&sub, &ordering::natural(&sub), &SolveOptions::default()).unwrap();
        assert!(epgs_circuit::simulate::verify_circuit(&natural.circuit, &sub).unwrap());
        assert!(plan.variants[0].ee_cnots <= natural.circuit.ee_two_qubit_count());
    }

    #[test]
    fn single_vertex_subgraph() {
        let sub = Graph::new(1);
        let plan =
            compile_subgraph(&sub, &[3], &hw(), &CompileObjective::Emitters, 2, 1, 5).unwrap();
        assert_eq!(plan.photon_count(), 1);
        assert_eq!(plan.variants[0].solved.circuit.emission_count(), 1);
    }
}
