//! Subgraph circuit scheduling (paper §IV.C).
//!
//! Subgraph circuits are packed on the timeline *as late as possible* in
//! priority order `P_c = n_p / T_c` — photons-per-duration — under the global
//! emitter budget `Ne_limit`. The packing treats each circuit as a Tetris
//! piece whose shape is its emitter-usage step curve (Fig. 8).
//!
//! The paper then upgrades blocks to higher-emitter variants when that
//! shortens the makespan (the "full utilization" rule). This reproduction
//! measured that pass and dropped it: each leaf's flexible variants had
//! the base circuit's gates and usage curve (see [`crate::subgraph`]), so
//! an upgrade packed to the same makespan and the strict improvement test
//! never adopted one — 0 of 768 paper-sweep placements under
//! `bench_framework()` (every budget from 1 to 2·Ne_min) and 0 of 390
//! default-corpus placements under the serve configuration.

use crate::subgraph::SubgraphPlan;

/// A right-continuous step function, value `counts[k]` on
/// `[times[k], times[k+1])`, 0 before `times[0]` and after the last event.
#[derive(Debug, Clone, Default)]
pub struct StepFn {
    times: Vec<f64>,
    counts: Vec<usize>,
}

impl StepFn {
    /// Builds from parallel event arrays (times strictly increasing).
    pub fn new(times: Vec<f64>, counts: Vec<usize>) -> Self {
        debug_assert_eq!(times.len(), counts.len());
        debug_assert!(times.windows(2).all(|w| w[0] < w[1]));
        StepFn { times, counts }
    }

    /// Value at `t`.
    pub fn eval(&self, t: f64) -> usize {
        match self.times.iter().rposition(|&bp| bp <= t + 1e-12) {
            Some(k) => self.counts[k],
            None => 0,
        }
    }

    /// Event times.
    pub fn breakpoints(&self) -> &[f64] {
        &self.times
    }

    /// The curve reversed over `[0, horizon]`: `rev(s) = self(horizon − s)`.
    pub fn reversed(&self, horizon: f64) -> StepFn {
        if self.times.is_empty() {
            return StepFn::default();
        }
        // Piece k holds on [times[k], times[k+1]); reversed it holds on
        // (horizon−times[k+1], horizon−times[k]] — shift to right-continuous
        // pieces starting at horizon−times[k+1].
        let mut times = Vec::with_capacity(self.times.len() + 1);
        let mut counts = Vec::with_capacity(self.times.len() + 1);
        for k in (0..self.times.len()).rev() {
            let end = if k + 1 < self.times.len() {
                self.times[k + 1]
            } else {
                horizon.max(self.times[k])
            };
            let start = (horizon - end).max(0.0);
            if counts.last() != Some(&self.counts[k]) || times.is_empty() {
                if let Some(&last_t) = times.last() {
                    let last_t: f64 = last_t;
                    if (start - last_t).abs() < 1e-12 {
                        *counts.last_mut().expect("non-empty") = self.counts[k];
                        continue;
                    }
                }
                times.push(start);
                counts.push(self.counts[k]);
            }
        }
        // Beyond the reversed horizon the curve is 0.
        let tail = horizon - self.times[0];
        if times.last().is_none_or(|&t| t < tail - 1e-12) {
            times.push(tail.max(0.0));
            counts.push(0);
        } else if let Some(c) = counts.last_mut() {
            *c = 0;
        }
        StepFn { times, counts }
    }

    /// Adds `other`, shifted right by `offset`, into `self`.
    pub fn add_shifted(&mut self, other: &StepFn, offset: f64) {
        let mut bps: Vec<f64> = self
            .times
            .iter()
            .copied()
            .chain(other.times.iter().map(|&t| t + offset))
            .collect();
        bps.sort_by(f64::total_cmp);
        bps.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let counts: Vec<usize> = bps
            .iter()
            .map(|&t| self.eval(t) + other.eval(t - offset))
            .collect();
        self.times = bps;
        self.counts = counts;
    }

    /// Peak of `self + other·(shifted by offset)` over the other's support.
    pub fn peak_with(&self, other: &StepFn, offset: f64) -> usize {
        let mut peak = 0;
        for &t in &self.times {
            peak = peak.max(self.eval(t) + other.eval(t - offset));
        }
        for &t in &other.times {
            let s = t + offset;
            peak = peak.max(self.eval(s) + other.eval(t));
        }
        peak
    }
}

/// Placement of one subgraph circuit on the reversed timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// Index into the plan list.
    pub block: usize,
    /// Offset of the block's *end* from the circuit end (reversed time).
    pub offset_from_end: f64,
}

/// A complete schedule of all subgraph circuits.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Placements in packing order.
    pub placements: Vec<Placement>,
    /// Estimated makespan of the packed composite.
    pub makespan: f64,
    /// The emitter budget used.
    pub ne_limit: usize,
}

impl Schedule {
    /// Absolute start time of a placement under this schedule's makespan.
    pub fn start_time(&self, p: &Placement, plans: &[SubgraphPlan]) -> f64 {
        self.makespan - p.offset_from_end - plans[p.block].duration
    }

    /// The global emission ordering induced by the schedule: photons sorted
    /// by their absolute scheduled emission times (ties broken by block and
    /// local index, so the result is deterministic).
    pub fn global_ordering(&self, plans: &[SubgraphPlan]) -> Vec<usize> {
        let mut photons: Vec<(f64, usize, usize, usize)> = Vec::new();
        for p in &self.placements {
            let start = self.start_time(p, plans);
            let plan = &plans[p.block];
            for (local, &global) in plan.vertices.iter().enumerate() {
                photons.push((start + plan.emission_times[local], p.block, local, global));
            }
        }
        photons.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        photons.into_iter().map(|(_, _, _, g)| g).collect()
    }
}

/// Packs `plans` under `ne_limit` emitters: ALAP, priority-ordered.
pub fn schedule(plans: &[SubgraphPlan], ne_limit: usize) -> Schedule {
    // Priority order: many photons / short duration first (latest placement).
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by(|&a, &b| {
        plans[b]
            .priority()
            .total_cmp(&plans[a].priority())
            .then(a.cmp(&b))
    });

    let mut combined = StepFn::default();
    let mut placements = Vec::with_capacity(plans.len());
    let mut makespan = 0f64;
    for b in order {
        let plan = &plans[b];
        let rev = {
            let curve = StepFn::new(plan.usage.0.clone(), plan.usage.1.clone());
            curve.reversed(plan.duration)
        };
        // Candidate offsets: 0 and every existing breakpoint; take the first
        // (smallest = latest in real time) that fits the budget.
        let mut candidates: Vec<f64> = vec![0.0];
        candidates.extend(combined.breakpoints().iter().copied());
        candidates.sort_by(f64::total_cmp);
        candidates.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        let offset = candidates
            .into_iter()
            .find(|&o| combined.peak_with(&rev, o) <= ne_limit)
            .unwrap_or({
                // Place after everything currently scheduled.
                makespan
            });
        combined.add_shifted(&rev, offset);
        makespan = makespan.max(offset + plan.duration);
        placements.push(Placement {
            block: b,
            offset_from_end: offset,
        });
    }
    Schedule {
        placements,
        makespan,
        ne_limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subgraph::compile_subgraph;
    use epgs_graph::generators;
    use epgs_hardware::HardwareModel;

    fn plan_for(g: &epgs_graph::Graph, base: usize, seed: u64) -> SubgraphPlan {
        let vertices: Vec<usize> = (base..base + g.vertex_count()).collect();
        compile_subgraph(
            g,
            &vertices,
            &HardwareModel::quantum_dot(),
            &epgs_hardware::CompileObjective::Emitters,
            4,
            seed,
        )
        .unwrap()
    }

    #[test]
    fn stepfn_eval_and_reverse() {
        let f = StepFn::new(vec![0.0, 1.0, 3.0], vec![1, 2, 0]);
        assert_eq!(f.eval(-0.5), 0);
        assert_eq!(f.eval(0.5), 1);
        assert_eq!(f.eval(1.0), 2);
        assert_eq!(f.eval(2.9), 2);
        assert_eq!(f.eval(3.1), 0);
        let r = f.reversed(3.0);
        // rev(s) = f(3 − s): s ∈ [0,2) → f ∈ (1,3] → 2; s ∈ (2,3] → 1.
        assert_eq!(r.eval(0.5), 2);
        assert_eq!(r.eval(1.9), 2);
        assert_eq!(r.eval(2.5), 1);
        assert_eq!(r.eval(3.5), 0);
    }

    #[test]
    fn stepfn_add_shifted() {
        let mut a = StepFn::new(vec![0.0, 2.0], vec![1, 0]);
        let b = StepFn::new(vec![0.0, 1.0], vec![1, 0]);
        a.add_shifted(&b, 1.0);
        assert_eq!(a.eval(0.5), 1);
        assert_eq!(a.eval(1.5), 2);
        assert_eq!(a.eval(2.5), 0);
    }

    #[test]
    fn peak_with_detects_overlap() {
        let a = StepFn::new(vec![0.0, 2.0], vec![2, 0]);
        let b = StepFn::new(vec![0.0, 1.0], vec![2, 0]);
        assert_eq!(a.peak_with(&b, 0.0), 4);
        assert_eq!(a.peak_with(&b, 2.0), 2);
    }

    #[test]
    fn two_path_blocks_run_in_parallel_with_two_emitters() {
        let p1 = plan_for(&generators::path(4), 0, 1);
        let p2 = plan_for(&generators::path(4), 4, 2);
        let plans = vec![p1, p2];
        let wide = schedule(&plans, 2);
        let narrow = schedule(&plans, 1);
        assert!(
            wide.makespan < narrow.makespan - 1e-9,
            "parallel packing must beat serial: {} vs {}",
            wide.makespan,
            narrow.makespan
        );
    }

    #[test]
    fn serial_budget_stacks_blocks() {
        let p1 = plan_for(&generators::path(4), 0, 3);
        let p2 = plan_for(&generators::path(4), 4, 4);
        let d1 = p1.duration;
        let d2 = p2.duration;
        let plans = vec![p1, p2];
        let s = schedule(&plans, 1);
        assert!(s.makespan >= d1 + d2 - 1e-9);
    }

    #[test]
    fn global_ordering_covers_all_vertices() {
        let p1 = plan_for(&generators::path(3), 0, 5);
        let p2 = plan_for(&generators::cycle(4), 3, 6);
        let plans = vec![p1, p2];
        let s = schedule(&plans, 3);
        let ord = s.global_ordering(&plans);
        let mut sorted = ord.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn higher_priority_blocks_end_later() {
        // A many-photon quick block should be placed at (or nearer) the end
        // than a low-photon, long block when both cannot overlap.
        let quick = plan_for(&generators::path(5), 0, 7); // 5 photons, short
        let slow = plan_for(&generators::complete(4), 5, 8); // 4 photons, long
        let plans = vec![quick, slow];
        let s = schedule(&plans, 1); // force serialization
        let quick_place = s.placements.iter().find(|p| p.block == 0).unwrap();
        let slow_place = s.placements.iter().find(|p| p.block == 1).unwrap();
        assert!(quick_place.offset_from_end <= slow_place.offset_from_end);
    }

    #[test]
    fn schedule_is_deterministic() {
        let plans = vec![
            plan_for(&generators::path(4), 0, 9),
            plan_for(&generators::cycle(4), 4, 10),
            plan_for(&generators::star(4), 8, 11),
        ];
        let a = schedule(&plans, 3);
        let b = schedule(&plans, 3);
        assert_eq!(a.placements, b.placements);
        assert_eq!(a.makespan, b.makespan);
    }
}
