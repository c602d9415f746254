//! Pins what `SolveOptions::max_pool_growth` means: a solve allowed `k`
//! extra emitters returns exactly the circuit a solve with a fixed pool of
//! the size it reports would return, and a solve that exhausts `base + k`
//! emitters fails exactly as a fixed pool of `base + k` does.
//!
//! Random graphs are solved under three orderings (natural, reversed, and
//! an interleaved one that forces time-reversed measurements), from every
//! starting pool between one emitter and the height-function minimum, with
//! the framework's weighted element selection, with a two-group emitter
//! affinity, and with the vanilla element selection.

use rand::rngs::StdRng;
use rand::SeedableRng;

use epgs_circuit::simulate::verify_circuit;
use epgs_graph::{generators, height, Graph};
use epgs_solver::reverse::{solve_with_ordering, Affinity, SolveOptions};
use epgs_solver::SolverError;

/// Seeded Erdős–Rényi graphs of 5–11 vertices at two densities.
fn graphs() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(0x6e0);
    let mut out = Vec::new();
    for n in 5..=11 {
        for p in [0.3, 0.55] {
            out.push(generators::erdos_renyi(n, p, &mut rng));
        }
    }
    out
}

/// Natural, reversed, and evens-then-odds (interleaved) orderings.
fn orderings(n: usize) -> [Vec<usize>; 3] {
    let natural: Vec<usize> = (0..n).collect();
    let reversed: Vec<usize> = (0..n).rev().collect();
    let interleaved: Vec<usize> = (0..n).step_by(2).chain((1..n).step_by(2)).collect();
    [natural, reversed, interleaved]
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Weighted,
    TwoGroups,
    Vanilla,
}

/// Options for a solve starting at `pool` emitters. The two-group affinity
/// splits the photons in half and the starting pool into even and odd
/// emitters, as the recombine stage reserves emitters inside its pool.
fn options(n: usize, mode: Mode, pool: usize, growth: usize) -> SolveOptions {
    let affinity = matches!(mode, Mode::TwoGroups).then(|| Affinity {
        photon_group: (0..n).map(|v| usize::from(2 * v >= n)).collect(),
        group_emitters: vec![
            (0..pool).step_by(2).collect(),
            (1..pool).step_by(2).collect(),
        ],
    });
    SolveOptions {
        emitters: Some(pool),
        max_pool_growth: growth,
        affinity,
        vanilla_elements: matches!(mode, Mode::Vanilla),
    }
}

#[test]
fn pool_growth_equals_a_fixed_pool_of_the_reported_size() {
    let (mut grown, mut exhausted) = (0, 0);
    for g in graphs() {
        let n = g.vertex_count();
        for ord in orderings(n) {
            let needed = height::min_emitters(&g, &ord).max(1);
            for mode in [Mode::Weighted, Mode::TwoGroups, Mode::Vanilla] {
                for base in 1..=needed {
                    for k in [1, 3] {
                        let grow = solve_with_ordering(&g, &ord, &options(n, mode, base, k));
                        match grow {
                            Ok(s) => {
                                assert!(
                                    verify_circuit(&s.circuit, &g).unwrap(),
                                    "{mode:?} base {base} k {k} {ord:?}"
                                );
                                // The affinity stays the one built for the
                                // starting pool: growth adds emitters, it
                                // does not re-plan the reservation.
                                let mut fixed_opts = options(n, mode, base, 0);
                                fixed_opts.emitters = Some(s.emitters);
                                let fixed = solve_with_ordering(&g, &ord, &fixed_opts)
                                    .unwrap_or_else(|e| {
                                        panic!("{mode:?} base {base} k {k} {ord:?}: {e}")
                                    });
                                assert_eq!(
                                    s.circuit, fixed.circuit,
                                    "{mode:?} base {base} k {k} {ord:?}"
                                );
                                assert_eq!(s.emitters, fixed.emitters);
                                assert_eq!(s.circuit.num_emitters(), s.emitters);
                                assert!(s.emitters >= base && s.emitters <= base + k);
                                grown += usize::from(s.emitters > base);
                            }
                            Err(e) => {
                                let mut fixed_opts = options(n, mode, base, 0);
                                fixed_opts.emitters = Some(base + k);
                                let fixed = solve_with_ordering(&g, &ord, &fixed_opts);
                                assert!(
                                    matches!(e, SolverError::InsufficientEmitters { pool, .. } if pool == base + k),
                                    "{mode:?} base {base} k {k} {ord:?}: {e}"
                                );
                                assert_eq!(
                                    Err(e),
                                    fixed.map(|s| s.emitters),
                                    "{mode:?} base {base} k {k} {ord:?}"
                                );
                                exhausted += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    // The sweep must reach both branches, or it pins nothing.
    assert!(grown > 0, "no solve grew its pool");
    assert!(exhausted > 0, "no solve exhausted its pool");
}
