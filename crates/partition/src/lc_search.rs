//! Depth-limited local-complementation search wrapped around partitioning.
//!
//! The paper's MIP explores LC sequences of length ≤ l jointly with the
//! partition (§IV.A, Fig. 7). This module reproduces that search as a beam
//! search: each beam state is a graph (the original transformed by an LC
//! prefix); expanding a state applies one more LC; states are scored by the
//! best cut the FM partitioner finds on them. The incumbent over all visited
//! states — not just the deepest — is returned, so l = 0 is always a lower
//! bound on quality.
//!
//! Expansion is engineered for throughput. Each depth enumerates its
//! candidates in the sequential `(state, v)` order and scores them **in
//! parallel, one task per candidate**: a worker keeps a working graph for
//! the state it is on and scores by **apply → score → undo** (LC is
//! self-inverse at a fixed vertex), so no candidate graph is cloned and
//! only the `BEAM_WIDTH` survivors are ever materialized. Commuting LCs
//! often reach the same graph twice in one beam; a state equal to an
//! earlier one shares that state's scores instead of repeating them (same
//! graph, same salt, same answer). Scores, incumbent updates, and
//! tie-breaks replay the sequential candidate order exactly, so the
//! returned partition is bit-identical to scoring every candidate in turn.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rayon::prelude::*;

use epgs_graph::{ops, Graph};

use crate::control::{InjectedFault, SearchControl, SearchReport};
use crate::fm::fm_partition;
use crate::multilevel::multilevel_partition;
use crate::spec::{Partition, PartitionScheme, PartitionSpec};

/// Beam width of the LC search (states kept per depth).
const BEAM_WIDTH: usize = 6;

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
            PartitionScheme::Multilevel(opts) => {
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
                        opts,
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

    // Beam of (graph, lc_sequence, cut).
    let mut beam: Vec<(Graph, Vec<usize>, usize)> = vec![(g.clone(), vec![], base_cut)];
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
        for (si, (graph, seq, _)) in beam.iter().enumerate() {
            let first = (0..si).find(|&i| beam[i].0 == *graph).unwrap_or(si);
            for v in 0..n {
                if graph.degree(v) < 2 {
                    continue; // LC at degree ≤ 1 vertices never changes edges
                }
                // Avoid immediately undoing the previous LC.
                if seq.last() == Some(&v) {
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
        // Score the distinct expansions, one task per candidate. A worker
        // keeps the graph of the state it is on and applies/undoes the LC
        // around the FM call instead of cloning per candidate.
        let salt = depth as u64 + 1;
        let scores: Vec<Option<Scored>> = jobs
            .into_par_iter()
            .map_init(
                || (usize::MAX, Graph::new(0)),
                |(on, work), (si, v)| {
                    if ctrl.expired() {
                        truncated.store(true, Ordering::Relaxed);
                        return None; // partial round: incumbent updates below stay valid
                    }
                    if *on != si {
                        *on = si;
                        work.clone_from(&beam[si].0);
                    }
                    ops::local_complement(work, v).expect("vertex in range");
                    let (assign, cut) = score(work, salt);
                    let edges = work.edge_count();
                    ops::local_complement(work, v).expect("vertex in range");
                    Some(Scored { assign, cut, edges })
                },
            )
            .collect();
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
                let (graph, seq, _) = &beam[c.state];
                let mut transformed = graph.clone();
                ops::local_complement(&mut transformed, c.v).expect("vertex in range");
                let mut lc_sequence = seq.clone();
                lc_sequence.push(c.v);
                best = Partition {
                    block_of: s.assign.clone(),
                    lc_sequence,
                    transformed,
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
            .map(|(c, s)| {
                let (graph, seq, _) = &beam[c.state];
                let mut next = graph.clone();
                ops::local_complement(&mut next, c.v).expect("vertex in range");
                let mut next_seq = seq.clone();
                next_seq.push(c.v);
                (next, next_seq, s.cut)
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
    use epgs_graph::generators;

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
            scheme: PartitionScheme::Multilevel(crate::MultilevelOptions::default()),
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
