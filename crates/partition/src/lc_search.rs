//! Depth-limited local-complementation search wrapped around partitioning.
//!
//! The paper's MIP explores LC sequences of length ≤ l jointly with the
//! partition (§IV.A, Fig. 7). This module reproduces that search as a beam
//! search: each beam state is a graph (the original transformed by an LC
//! prefix) with the partition found on it; expanding a state applies one
//! more LC; expansions are scored by the best cut the partitioner finds on
//! them. The incumbent over all visited states — not just the deepest — is
//! returned, so l = 0 is always a lower bound on quality.
//!
//! Above [`COARSEN_CUTOFF`] vertices (the V-cycle's cutoff, under both
//! schemes), not every expansion is partitioned. An LC at v toggles only
//! the pairs inside N(v), so the cut and edge count it leaves under the
//! parent's (fixed) assignment are exact in O(deg(v)²).
//! Each depth ranks its distinct expansions by that pair and fully scores
//! only the first `BEAM_WIDTH` of the stable order, so a search makes at
//! most `1 + lc_budget · BEAM_WIDTH` partitioner calls instead of one per
//! distinct expansion. At or below the cutoff every expansion is scored,
//! as the paper's search does.
//!
//! Scoring is engineered for throughput. Each depth enumerates its
//! candidates in the sequential `(state, v)` order and scores them **in
//! parallel, one task per candidate**: a worker keeps a working graph for
//! the state it is on and scores by **apply → score → undo** (LC is
//! self-inverse at a fixed vertex), so no candidate graph is cloned and
//! only the `BEAM_WIDTH` survivors are ever materialized. Commuting LCs
//! often reach the same graph twice in one beam; a state equal to an
//! earlier one shares that state's scores instead of repeating them (same
//! graph, same salt, same answer). Scores, incumbent updates, and
//! tie-breaks replay the sequential candidate order exactly, so the
//! returned partition is bit-identical to scoring the same candidates in
//! turn.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rayon::prelude::*;

use epgs_graph::{ops, Graph};

use crate::control::{InjectedFault, SearchControl, SearchReport};
use crate::fm::fm_partition;
use crate::multilevel::{multilevel_partition, COARSEN_CUTOFF};
use crate::spec::{Partition, PartitionScheme, PartitionSpec};

/// Beam width of the LC search (states kept per depth).
const BEAM_WIDTH: usize = 6;

/// One beam state: an LC-transformed graph and the partition found on it.
struct State {
    graph: Graph,
    /// LC sequence that turns the input graph into `graph`.
    seq: Vec<usize>,
    /// Cut of `assign` on `graph`.
    cut: usize,
    /// Edge count of `graph`.
    edges: usize,
    /// Block per vertex of `graph`, as the partitioner found it.
    assign: Vec<usize>,
}

impl State {
    /// The state's graph after LC at `v`.
    fn expanded(&self, v: usize) -> Graph {
        let mut next = self.graph.clone();
        ops::local_complement(&mut next, v).expect("vertex in range");
        next
    }

    /// The state's LC sequence followed by `v`.
    fn extended(&self, v: usize) -> Vec<usize> {
        let mut seq = self.seq.clone();
        seq.push(v);
        seq
    }
}

/// Exact change in `(cut, edge count)` that LC at `v` makes to `g` under
/// the fixed assignment `block_of`. LC toggles every pair {a, b} ⊂ N(v):
/// ±1 edge, and ±1 cut edge when a and b sit in different blocks.
fn lc_delta(g: &Graph, v: usize, block_of: &[usize]) -> (isize, isize) {
    let nbrs = g.neighbors(v);
    let (mut cut, mut edges) = (0, 0);
    for &a in nbrs {
        for &b in nbrs.range(a + 1..) {
            let toggle = if g.has_edge(a, b) { -1 } else { 1 };
            edges += toggle;
            if block_of[a] != block_of[b] {
                cut += toggle;
            }
        }
    }
    (cut, edges)
}

/// One expansion `state.graph + LC(v)`, in the sequential candidate order.
struct Candidate {
    /// Index of the parent beam state.
    state: usize,
    /// The vertex complemented.
    v: usize,
    /// Index of its score in the depth's score table; a candidate of a
    /// duplicate beam state shares the earlier state's entry.
    job: usize,
}

/// The score of one expansion, graph not yet materialized.
struct Scored {
    /// FM assignment of the expanded graph.
    assign: Vec<usize>,
    /// FM cut of the expanded graph.
    cut: usize,
    /// Edge count of the expanded graph (sort tie-break).
    edges: usize,
}

/// Searches LC sequences up to `spec.lc_budget` and returns the best
/// partition found across every visited transformed graph.
pub fn partition_with_lc(g: &Graph, spec: &PartitionSpec) -> Partition {
    partition_with_lc_controlled(g, spec, &SearchControl::default()).0
}

/// [`partition_with_lc`] with runtime controls: a cooperative deadline
/// (checked between scoring calls; the incumbent is returned when it
/// passes) and a multilevel fault hook (a failed or panicked multilevel
/// call falls back to the flat FM engine for that one scoring call). With
/// a default [`SearchControl`] this is byte-identical to the uncontrolled
/// search. The [`SearchReport`] says what, if anything, was given up, and
/// is mirrored into [`Partition::degraded`].
pub fn partition_with_lc_controlled(
    g: &Graph,
    spec: &PartitionSpec,
    ctrl: &SearchControl,
) -> (Partition, SearchReport) {
    let n = g.vertex_count();
    let num_blocks = spec.num_blocks(n);
    let fallbacks = AtomicUsize::new(0);
    let truncated = AtomicBool::new(false);
    // Scheme dispatch: the multilevel engine delegates to `fm_partition`
    // with identical arguments at or below its coarsening cutoff, so the two
    // schemes are byte-identical on small graphs.
    //
    // The multilevel arm must contain an injected panic *here*, inside the
    // worker closure: the rayon shim joins scoped worker threads, so an
    // escaping panic would poison its result mutex and take down the whole
    // scoring round instead of one call.
    let flat = |graph: &Graph, salt: u64| -> (Vec<usize>, usize) {
        fm_partition(
            graph,
            num_blocks,
            spec.g_max,
            spec.effort.max(2),
            spec.seed ^ salt,
        )
    };
    let score = |graph: &Graph, salt: u64| -> (Vec<usize>, usize) {
        match &spec.scheme {
            PartitionScheme::Flat => flat(graph, salt),
            PartitionScheme::Multilevel(_) => {
                let injected = ctrl.multilevel_fault.as_ref().and_then(|hook| hook());
                match injected {
                    Some(InjectedFault::Fail) => {
                        fallbacks.fetch_add(1, Ordering::Relaxed);
                        return flat(graph, salt);
                    }
                    Some(InjectedFault::Slow(ms)) => {
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                    Some(InjectedFault::Panic) | None => {}
                }
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    if injected == Some(InjectedFault::Panic) {
                        panic!("injected fault: multilevel partitioner");
                    }
                    multilevel_partition(
                        graph,
                        num_blocks,
                        spec.g_max,
                        spec.effort.max(2),
                        spec.seed ^ salt,
                    )
                }));
                attempt.unwrap_or_else(|_| {
                    fallbacks.fetch_add(1, Ordering::Relaxed);
                    flat(graph, salt)
                })
            }
        }
    };

    let (base_assign, base_cut) = score(g, 0);
    let mut best = Partition {
        block_of: base_assign,
        lc_sequence: vec![],
        transformed: g.clone(),
        cut: base_cut,
        degraded: false,
    };
    if spec.lc_budget == 0 || n == 0 {
        let report = SearchReport {
            truncated: false,
            multilevel_fallbacks: fallbacks.load(Ordering::Relaxed),
        };
        best.degraded = report.degraded();
        return (best, report);
    }

    let mut beam = vec![State {
        graph: g.clone(),
        seq: vec![],
        cut: base_cut,
        edges: g.edge_count(),
        assign: best.block_of.clone(),
    }];
    for depth in 0..spec.lc_budget {
        // Cooperative deadline: stop expanding and keep the incumbent. The
        // base partition above always runs, so a terminal result exists even
        // with an already-expired deadline.
        if ctrl.expired() {
            truncated.store(true, Ordering::Relaxed);
            break;
        }
        // Enumerate the expansions in the sequential (state, v) order. A
        // state equal to an earlier one reuses that state's score for the
        // same v; it is scored only when the earlier state skipped v.
        let mut candidates = Vec::new();
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        let mut job_of = vec![usize::MAX; beam.len() * n];
        for (si, state) in beam.iter().enumerate() {
            let first = (0..si)
                .find(|&i| beam[i].graph == state.graph)
                .unwrap_or(si);
            for v in 0..n {
                if state.graph.degree(v) < 2 {
                    continue; // LC at degree ≤ 1 vertices never changes edges
                }
                // Avoid immediately undoing the previous LC.
                if state.seq.last() == Some(&v) {
                    continue;
                }
                let job = &mut job_of[first * n + v];
                if *job == usize::MAX {
                    *job = jobs.len();
                    jobs.push((si, v));
                }
                candidates.push(Candidate {
                    state: si,
                    v,
                    job: *job,
                });
            }
        }
        // Pick the expansions to partition. Above the cutoff, rank them by
        // their exact cut and edge count under the parent's assignment and
        // keep the first BEAM_WIDTH of that stable order; at or below it,
        // keep all of them.
        let mut picked: Vec<usize> = (0..jobs.len()).collect();
        if n > COARSEN_CUTOFF {
            picked.sort_by_cached_key(|&j| {
                let (si, v) = jobs[j];
                let state = &beam[si];
                let (cut, edges) = lc_delta(&state.graph, v, &state.assign);
                (state.cut as isize + cut, state.edges as isize + edges)
            });
            picked.truncate(BEAM_WIDTH);
            picked.sort_unstable();
        }
        // Score the picked expansions, one task per candidate. A worker
        // keeps the graph of the state it is on and applies/undoes the LC
        // around the partitioner call instead of cloning per candidate.
        let salt = depth as u64 + 1;
        let picked_scores: Vec<Option<Scored>> = picked
            .par_iter()
            .map_init(
                || (usize::MAX, Graph::new(0)),
                |(on, work), &j| {
                    if ctrl.expired() {
                        truncated.store(true, Ordering::Relaxed);
                        return None; // partial round: incumbent updates below stay valid
                    }
                    let (si, v) = jobs[j];
                    if *on != si {
                        *on = si;
                        work.clone_from(&beam[si].graph);
                    }
                    ops::local_complement(work, v).expect("vertex in range");
                    let (assign, cut) = score(work, salt);
                    let edges = work.edge_count();
                    ops::local_complement(work, v).expect("vertex in range");
                    Some(Scored { assign, cut, edges })
                },
            )
            .collect();
        let mut scores: Vec<Option<Scored>> = jobs.iter().map(|_| None).collect();
        for (j, s) in picked.into_iter().zip(picked_scores) {
            scores[j] = s;
        }
        let scored: Vec<(&Candidate, &Scored)> = candidates
            .iter()
            .filter_map(|c| Some((c, scores[c.job].as_ref()?)))
            .collect();
        if scored.is_empty() {
            break;
        }

        // Incumbent updates, replayed in the sequential candidate order.
        for &(c, s) in &scored {
            if s.cut < best.cut || (s.cut == best.cut && s.edges < best.transformed.edge_count()) {
                best = Partition {
                    block_of: s.assign.clone(),
                    lc_sequence: beam[c.state].extended(c.v),
                    transformed: beam[c.state].expanded(c.v),
                    cut: s.cut,
                    degraded: false,
                };
            }
        }
        // Keep the BEAM_WIDTH best candidates — same key and the same
        // stable order over (state, v) as the sequential sort — and only
        // materialize those as graphs.
        let mut survivors = scored;
        survivors.sort_by_key(|(_, s)| (s.cut, s.edges));
        survivors.truncate(BEAM_WIDTH);
        // Early exit: a zero cut cannot be beaten.
        if best.cut == 0 {
            break;
        }
        beam = survivors
            .into_iter()
            .map(|(c, s)| State {
                graph: beam[c.state].expanded(c.v),
                seq: beam[c.state].extended(c.v),
                cut: s.cut,
                edges: s.edges,
                assign: s.assign.clone(),
            })
            .collect();
    }
    debug_assert_eq!(best.cut, best.recompute_cut());
    let report = SearchReport {
        truncated: truncated.load(Ordering::Relaxed),
        multilevel_fallbacks: fallbacks.load(Ordering::Relaxed),
    };
    best.degraded = report.degraded();
    (best, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::{generators, metrics};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The O(deg²) delta equals a full recount on LC_v(G) for every v
        /// of degree ≥ 2, under a random assignment.
        #[test]
        fn lc_delta_matches_a_recount(
            n in 3usize..40,
            density in 1u32..8,
            blocks in 1usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::erdos_renyi(n, f64::from(density) / 10.0, &mut rng);
            let block_of: Vec<usize> = (0..n).map(|_| rng.gen_range(0..blocks)).collect();
            let (cut, edges) = (metrics::cut_edges(&g, &block_of), g.edge_count());
            for v in (0..n).filter(|&v| g.degree(v) >= 2) {
                let mut after = g.clone();
                ops::local_complement(&mut after, v).unwrap();
                let (dcut, dedges) = lc_delta(&g, v, &block_of);
                prop_assert_eq!(
                    cut as isize + dcut,
                    metrics::cut_edges(&after, &block_of) as isize,
                    "cut after LC at {}", v
                );
                prop_assert_eq!(edges as isize + dedges, after.edge_count() as isize);
            }
        }
    }

    #[test]
    fn lc_never_hurts() {
        let g = generators::lattice(3, 4);
        let mut spec = PartitionSpec {
            g_max: 6,
            lc_budget: 0,
            effort: 6,
            seed: 5,
            ..Default::default()
        };
        let without = partition_with_lc(&g, &spec);
        spec.lc_budget = 4;
        let with = partition_with_lc(&g, &spec);
        assert!(with.cut <= without.cut);
    }

    #[test]
    fn lc_helps_on_complete_graph() {
        // K6 split 2×3 cuts 9 edges; LC at any vertex of K_n produces a star
        // plus clique structure… in fact K_n is LC-equivalent to the star,
        // where splitting cuts only the leaves outside the hub block.
        let g = generators::complete(6);
        let spec = PartitionSpec {
            g_max: 3,
            lc_budget: 6,
            effort: 10,
            seed: 7,
            ..Default::default()
        };
        let without = partition_with_lc(
            &g,
            &PartitionSpec {
                lc_budget: 0,
                ..spec.clone()
            },
        );
        let with = partition_with_lc(&g, &spec);
        assert!(
            with.cut < without.cut,
            "LC should shrink the K6 cut: {} vs {}",
            with.cut,
            without.cut
        );
    }

    #[test]
    fn transformed_graph_matches_sequence() {
        let g = generators::complete(5);
        let spec = PartitionSpec {
            g_max: 3,
            lc_budget: 5,
            effort: 6,
            seed: 11,
            ..Default::default()
        };
        let p = partition_with_lc(&g, &spec);
        let mut replay = g.clone();
        ops::apply_lc_sequence(&mut replay, &p.lc_sequence).unwrap();
        assert_eq!(replay, p.transformed);
        assert_eq!(p.cut, p.recompute_cut());
        assert!(p.respects_capacity(spec.g_max));
    }

    #[test]
    fn sequence_respects_budget() {
        let g = generators::complete(6);
        let spec = PartitionSpec {
            g_max: 3,
            lc_budget: 2,
            effort: 5,
            seed: 3,
            ..Default::default()
        };
        let p = partition_with_lc(&g, &spec);
        assert!(p.lc_sequence.len() <= 2);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::new(0);
        let p = partition_with_lc(&g, &PartitionSpec::default());
        assert_eq!(p.cut, 0);
        assert!(!p.degraded);
    }

    #[test]
    fn default_control_is_byte_identical_to_uncontrolled() {
        let g = generators::lattice(3, 4);
        let spec = PartitionSpec {
            g_max: 6,
            lc_budget: 3,
            effort: 5,
            seed: 5,
            ..Default::default()
        };
        let plain = partition_with_lc(&g, &spec);
        let (controlled, report) =
            partition_with_lc_controlled(&g, &spec, &SearchControl::default());
        assert_eq!(plain, controlled);
        assert_eq!(report, SearchReport::default());
        assert!(!controlled.degraded);
    }

    #[test]
    fn multilevel_faults_fall_back_to_flat_and_mark_degraded() {
        use std::sync::Arc;
        // Complete(9) with g_max 3 exceeds nothing structural, but the point
        // is the dispatch: every multilevel call is forced to fail (half
        // cleanly, half by panic), so the whole search scores via the flat
        // engine — which must produce the Flat scheme's exact result.
        let g = generators::complete(9);
        let spec = PartitionSpec {
            g_max: 3,
            lc_budget: 2,
            effort: 5,
            seed: 3,
            scheme: PartitionScheme::Multilevel(crate::MultilevelOptions),
        };
        let calls = Arc::new(AtomicUsize::new(0));
        let calls_in_hook = Arc::clone(&calls);
        let ctrl = SearchControl {
            deadline: None,
            multilevel_fault: Some(Arc::new(move || {
                let n = calls_in_hook.fetch_add(1, Ordering::Relaxed);
                Some(if n.is_multiple_of(2) {
                    InjectedFault::Fail
                } else {
                    InjectedFault::Panic
                })
            })),
        };
        let (p, report) = partition_with_lc_controlled(&g, &spec, &ctrl);
        assert!(report.multilevel_fallbacks > 0);
        assert!(!report.truncated);
        assert!(p.degraded);
        let flat = partition_with_lc(
            &g,
            &PartitionSpec {
                scheme: PartitionScheme::Flat,
                ..spec
            },
        );
        assert_eq!(p.block_of, flat.block_of);
        assert_eq!(p.cut, flat.cut);
        assert_eq!(calls.load(Ordering::Relaxed), report.multilevel_fallbacks);
    }

    #[test]
    fn expired_deadline_truncates_to_the_base_partition() {
        let g = generators::lattice(3, 4);
        let spec = PartitionSpec {
            g_max: 6,
            lc_budget: 4,
            effort: 5,
            seed: 5,
            ..Default::default()
        };
        let ctrl = SearchControl {
            deadline: Some(std::time::Instant::now()),
            multilevel_fault: None,
        };
        let (p, report) = partition_with_lc_controlled(&g, &spec, &ctrl);
        assert!(report.truncated);
        assert!(p.degraded);
        assert!(p.lc_sequence.is_empty(), "no depth was explored");
        let base = partition_with_lc(
            &g,
            &PartitionSpec {
                lc_budget: 0,
                ..spec
            },
        );
        assert_eq!(p.cut, base.cut);
        assert_eq!(p.block_of, base.block_of);
    }
}
