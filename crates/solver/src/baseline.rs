//! The comparison baseline: a GraphiQ-style deterministic solver.
//!
//! GraphiQ's `AlternateTargetSolver` (Lin et al., arXiv:2402.09285) wraps the
//! Li-et-al. time-reversed protocol in a search over *alternate targets* —
//! LC-equivalent presentations of the goal state — each solved
//! deterministically in the natural emission order at minimal emitter count.
//! The paper's evaluation runs it with a 30-minute timeout instead of
//! exhaustively. Our substitute keeps exactly that structure: the same
//! reverse engine as [`crate::reverse`], the natural ordering, plus a bounded
//! randomized search over LC-equivalent targets that keeps the best circuit
//! (single-qubit corrections included, so the circuit still delivers the
//! original target). See DESIGN.md §5 for the substitution rationale.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use epgs_circuit::{Circuit, Op, Qubit};
use epgs_graph::{ops, Graph};
use epgs_hardware::HardwareModel;

use crate::error::SolverError;
use crate::reverse::{solve_with_ordering, SolveOptions, Solved};

/// Configuration of the baseline solver.
#[derive(Debug, Clone)]
pub struct BaselineOptions {
    /// Alternate-target attempts beyond the original presentation
    /// (0 = plain Li-et-al. solve in the natural order).
    pub restarts: usize,
    /// Length of each random LC sequence defining an alternate target.
    pub lc_depth: usize,
    /// RNG seed for the alternate targets.
    pub seed: u64,
    /// Emitter pool override; `None` = the height-function minimum.
    pub emitters: Option<usize>,
}

impl Default for BaselineOptions {
    fn default() -> Self {
        BaselineOptions {
            restarts: 8,
            lc_depth: 3,
            seed: 0x5eed,
            emitters: None,
        }
    }
}

/// Compiles `target` the way the state-of-the-art baseline does:
/// time-reversed solve at minimal emitter count over a bounded set of
/// LC-equivalent alternate targets, choosing the best circuit by
/// emitter-emitter CNOT count (ties broken by duration). Every candidate,
/// LC corrections included, is verified against `target`; one that fails is
/// skipped.
///
/// # Errors
///
/// Returns the last solver error if every alternate target fails (which, at
/// the default pool-growth settings, indicates a malformed input).
pub fn solve_baseline(
    target: &Graph,
    hw: &HardwareModel,
    options: &BaselineOptions,
) -> Result<Solved, SolverError> {
    let n = target.vertex_count();
    let natural: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(options.seed);

    // Alternate targets: the original, plus `restarts` random LC variants.
    let mut alternates: Vec<Vec<usize>> = vec![vec![]];
    for _ in 0..options.restarts {
        let depth = rng.gen_range(1..=options.lc_depth.max(1));
        let seq: Vec<usize> = (0..depth).map(|_| rng.gen_range(0..n.max(1))).collect();
        alternates.push(seq);
    }

    let mut best: Option<Solved> = None;
    let mut last_err = None;
    for lc_seq in alternates {
        let mut variant = target.clone();
        let mut applied: Vec<usize> = Vec::new();
        for &v in &lc_seq {
            if variant.degree(v) >= 2 {
                ops::local_complement(&mut variant, v).expect("vertex in range");
                applied.push(v);
            }
        }
        // Each LC variant may need more emitters than the requested budget
        // (its height function differs); the pool is the larger of the two,
        // as real hardware would simply refuse the variant otherwise.
        let solve_opts = SolveOptions {
            emitters: options
                .emitters
                .map(|req| req.max(epgs_graph::height::min_emitters(&variant, &natural).max(1))),
            verify: false, // verified below, after LC corrections are appended
            vanilla_elements: true,
            max_pool_growth: 6,
            ..SolveOptions::default()
        };
        match solve_with_ordering(&variant, &natural, &solve_opts) {
            Ok(mut s) => {
                append_lc_inverse(&mut s.circuit, target, &applied);
                if !epgs_circuit::simulate::verify_circuit(&s.circuit, target).unwrap_or(false) {
                    last_err = Some(SolverError::VerificationFailed);
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some(b) => {
                        let (sc, bc) = (
                            s.circuit.ee_two_qubit_count(),
                            b.circuit.ee_two_qubit_count(),
                        );
                        let st = epgs_circuit::timeline(hw, &s.circuit).duration;
                        let bt = epgs_circuit::timeline(hw, &b.circuit).duration;
                        sc < bc || (sc == bc && st < bt)
                    }
                };
                if better {
                    best = Some(s);
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    best.ok_or_else(|| last_err.expect("no candidates attempted"))
}

/// Appends the inverse of the LC unitary sequence to `circuit`, so a
/// circuit generating the LC variant yields the original target.
///
/// The LC unitary at `v` on graph `H` is `(H·S†·H)_v ⊗ Π_{w∈N_H(v)} S_w`
/// (see the stabilizer crate's property tests); with |G_k⟩ = U_k … U_1
/// |G_0⟩, the circuit generating |G_k⟩ is extended by U_k† … U_1† applied in
/// that order. All gates are single-qubit photon gates, the "only cost" the
/// paper attributes to LC optimization.
pub fn append_lc_inverse(circuit: &mut Circuit, original: &Graph, lc_sequence: &[usize]) {
    if lc_sequence.is_empty() {
        return;
    }
    // Rebuild the intermediate graphs G_0 … G_{k-1}.
    let mut graphs = Vec::with_capacity(lc_sequence.len());
    let mut cur = original.clone();
    for &v in lc_sequence {
        graphs.push(cur.clone());
        ops::local_complement(&mut cur, v).expect("vertex in range");
    }
    // Append U_i† for i = k … 1; U† = (H·S·H) on v and S† on N_{G_{i-1}}(v).
    for (i, &v) in lc_sequence.iter().enumerate().rev() {
        let before = &graphs[i];
        circuit.push(Op::H(Qubit::Photon(v)));
        circuit.push(Op::S(Qubit::Photon(v)));
        circuit.push(Op::H(Qubit::Photon(v)));
        for &w in before.neighbors(v) {
            circuit.push(Op::Sdg(Qubit::Photon(w)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::generators;

    fn hw() -> HardwareModel {
        HardwareModel::quantum_dot()
    }

    #[test]
    fn baseline_solves_paths_with_one_emitter() {
        let g = generators::path(8);
        let s = solve_baseline(&g, &hw(), &BaselineOptions::default()).unwrap();
        assert_eq!(s.emitters, 1);
        assert_eq!(s.circuit.ee_two_qubit_count(), 0);
    }

    #[test]
    fn alternate_targets_never_hurt() {
        let g = generators::lattice(3, 3);
        let plain = solve_baseline(
            &g,
            &hw(),
            &BaselineOptions {
                restarts: 0,
                ..BaselineOptions::default()
            },
        )
        .unwrap();
        let searched = solve_baseline(&g, &hw(), &BaselineOptions::default()).unwrap();
        assert!(searched.circuit.ee_two_qubit_count() <= plain.circuit.ee_two_qubit_count());
    }

    #[test]
    fn zero_restarts_is_deterministic() {
        let g = generators::tree(9, 2);
        let opts = BaselineOptions {
            restarts: 0,
            ..BaselineOptions::default()
        };
        let a = solve_baseline(&g, &hw(), &opts).unwrap();
        let b = solve_baseline(&g, &hw(), &opts).unwrap();
        assert_eq!(a.circuit, b.circuit);
    }

    #[test]
    fn seeds_are_reproducible() {
        let g = generators::erdos_renyi(9, 0.3, &mut StdRng::seed_from_u64(4));
        let opts = BaselineOptions::default();
        let a = solve_baseline(&g, &hw(), &opts).unwrap();
        let b = solve_baseline(&g, &hw(), &opts).unwrap();
        assert_eq!(a.circuit, b.circuit);
    }

    #[test]
    fn lc_variant_circuits_still_deliver_the_original_target() {
        // With verification on (the default), a successful return proves the
        // LC-corrected circuit regenerates the *original* graph.
        let g = generators::cycle(7);
        let s = solve_baseline(
            &g,
            &hw(),
            &BaselineOptions {
                restarts: 6,
                ..BaselineOptions::default()
            },
        )
        .unwrap();
        assert!(epgs_circuit::simulate::verify_circuit(&s.circuit, &g).unwrap());
    }
}
