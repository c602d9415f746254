//! Differential suite for the state check: [`verify::is_graph_state_on`],
//! which undoes the preparation and tests for |0…0⟩, must answer exactly
//! as the canonical-form comparison it replaced (kept verbatim in
//! `reference/verify.rs`) on every tableau, valid or not.
//!
//! Positives are the final tableaux of compiled circuits under the six
//! outcome patterns `verify_circuit` replays, on registers that straddle
//! the 64-bit word boundary. Each one is then broken the ways a compiler
//! bug would break it: a photon sign flip, an emitter left in |+⟩ or |1⟩,
//! one edge of the target toggled, a permuted register, a cleared or a
//! duplicated row, and an odd phase. A randomized family embeds graph
//! states in wider registers, regauges them with row products, and
//! corrupts some of them at random.

#[path = "reference/verify.rs"]
mod verify_reference;

use proptest::prelude::*;

use epgs_circuit::simulate::{self, ListedOutcomes};
use epgs_graph::{generators, Graph};
use epgs_solver::{solve, SolveOptions};
use epgs_stabilizer::{verify, Tableau};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts both checks agree on `(t, g, qubits)` and returns the answer.
fn agree(t: &Tableau, g: &Graph, qubits: &[usize], what: &str) -> bool {
    let expected = verify_reference::is_graph_state_on(t, g, qubits);
    assert_eq!(
        verify::is_graph_state_on(t, g, qubits),
        expected,
        "{what}: register {qubits:?}"
    );
    expected
}

/// Overwrites row `dst` with a copy of row `src`, phase included.
fn duplicate_row(t: &mut Tableau, src: usize, dst: usize) {
    for q in 0..t.num_qubits() {
        t.set_x_bit(dst, q, t.x_bit(src, q));
        t.set_z_bit(dst, q, t.z_bit(src, q));
    }
    t.set_phase(dst, t.phase_of(src));
}

/// The outcome bits of `verify_circuit`'s pattern `p` for `count`
/// measurements.
fn pattern(p: u64, count: usize) -> Vec<bool> {
    (0..count)
        .map(|k| match p {
            0 => false,
            1 => true,
            p => ((k as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(p) >> 17) & 1 == 1,
        })
        .collect()
}

/// Targets of the compiled family: the generator shapes the pipeline
/// compiles, from a handful of photons to registers past 64 wires.
fn targets() -> Vec<(&'static str, Graph)> {
    let mut rng = StdRng::seed_from_u64(34);
    vec![
        ("path-5", generators::path(5)),
        ("cycle-8", generators::cycle(8)),
        ("star-7", generators::star(7)),
        ("complete-6", generators::complete(6)),
        ("lattice-3x4", generators::lattice(3, 4)),
        ("tree-31", generators::tree(31, 2)),
        ("er-24", generators::erdos_renyi(24, 0.2, &mut rng)),
        ("random-tree-70", generators::random_tree(70, &mut rng)),
        ("lattice-5x14", generators::lattice(5, 14)),
    ]
}

#[test]
fn compiled_tableaux_and_their_corruptions_match_the_reference() {
    let mut rng = StdRng::seed_from_u64(7);
    for (name, target) in targets() {
        // Natural orderings of the random shapes outgrow the default
        // pool growth; growing further keeps every target compilable.
        let options = SolveOptions {
            max_pool_growth: target.vertex_count(),
            ..SolveOptions::default()
        };
        let circuit = solve(&target, &options)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .circuit;
        let (m, n) = (circuit.num_emitters(), circuit.num_photons());
        let photons: Vec<usize> = (m..m + n).collect();
        for p in 0..6 {
            let mut outcomes = ListedOutcomes(pattern(p, circuit.measurement_count()));
            let t = simulate::run(&circuit, &mut outcomes).expect("valid circuit");
            let what = |case: &str| format!("{name}, pattern {p}, {case}");
            assert!(agree(&t, &target, &photons, &what("as compiled")));

            let photon = photons[rng.gen_range(0..n)];
            let mut flipped = t.clone();
            flipped.pz(photon);
            assert!(!agree(
                &flipped,
                &target,
                &photons,
                &what("photon sign flip")
            ));

            if m > 0 {
                let emitter = rng.gen_range(0..m);
                let mut plus = t.clone();
                plus.h(emitter);
                assert!(!agree(&plus, &target, &photons, &what("emitter in |+⟩")));
                let mut one = t.clone();
                one.px(emitter);
                assert!(!agree(&one, &target, &photons, &what("emitter in |1⟩")));
            }

            if n > 1 {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                let mut toggled = target.clone();
                toggled.toggle_edge(a, b).unwrap();
                assert!(!agree(&t, &toggled, &photons, &what("edge toggled")));

                let mut permuted = photons.clone();
                permuted.swap(a, b);
                agree(&t, &target, &permuted, &what("permuted register"));
                permuted.reverse();
                agree(&t, &target, &permuted, &what("reversed register"));
            }

            let rows = t.num_qubits();
            let r = rng.gen_range(0..rows);
            let mut cleared = t.clone();
            cleared.clear_row(r);
            assert!(!agree(&cleared, &target, &photons, &what("cleared row")));

            if rows > 1 {
                let src = (r + rng.gen_range(1..rows)) % rows;
                let mut duplicated = t.clone();
                duplicate_row(&mut duplicated, src, r);
                assert!(!agree(
                    &duplicated,
                    &target,
                    &photons,
                    &what("duplicated row")
                ));
            }

            let mut odd = t.clone();
            odd.set_phase(r, (t.phase_of(r) + 1) % 4);
            assert!(!agree(&odd, &target, &photons, &what("odd phase")));
        }
    }
}

#[test]
fn whole_register_check_matches_the_reference() {
    let g = generators::cycle(5);
    let t = Tableau::graph_state(&g);
    for (case, t) in [
        ("equal size", t.clone()),
        ("wider tableau", Tableau::graph_state(&generators::cycle(6))),
        (
            "narrower tableau",
            Tableau::graph_state(&generators::cycle(4)),
        ),
        ("zero state", Tableau::zero_state(5)),
    ] {
        assert_eq!(
            verify::is_graph_state(&t, &g),
            verify_reference::is_graph_state(&t, &g),
            "{case}"
        );
    }
    assert!(verify::is_graph_state(&t, &g));
}

/// |G⟩ on a random register of a `width`-qubit tableau, |0⟩ elsewhere,
/// regauged by random row products (same state, different generators).
fn embedded(g: &Graph, width: usize, rng: &mut StdRng) -> (Tableau, Vec<usize>) {
    let mut wires: Vec<usize> = (0..width).collect();
    for i in (1..width).rev() {
        wires.swap(i, rng.gen_range(0..=i));
    }
    let qubits = wires[..g.vertex_count()].to_vec();
    let mut t = Tableau::zero_state(width);
    for &q in &qubits {
        t.h(q);
    }
    for (i, j) in g.edges() {
        t.cz(qubits[i], qubits[j]);
    }
    for _ in 0..width {
        let a = rng.gen_range(0..width);
        let b = rng.gen_range(0..width);
        if a != b {
            t.row_mul(a, b);
        }
    }
    (t, qubits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Embedded graph states, intact or corrupted by one random edit
    /// (gate, Pauli, bit, phase, cleared or duplicated row, edge toggle).
    #[test]
    fn embedded_graph_states_match_the_reference(
        n in 1usize..40,
        extra in 0usize..90,
        density in 0u32..8,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = generators::erdos_renyi(n, f64::from(density) / 10.0, &mut rng);
        let width = n + extra;
        let (mut t, qubits) = embedded(&g, width, &mut rng);
        let (q, r) = (rng.gen_range(0..width), rng.gen_range(0..width));
        let intact = match rng.gen_range(0..9) {
            0 => { t.h(q); false }
            1 => { t.s(q); false }
            2 => { t.px(q); false }
            3 => { t.set_x_bit(r, q, !t.x_bit(r, q)); false }
            4 => { t.set_phase(r, (t.phase_of(r) + rng.gen_range(1..4)) % 4); false }
            5 => { t.clear_row(r); false }
            6 if width > 1 => { duplicate_row(&mut t, (r + 1) % width, r); false }
            7 if n > 1 => {
                let a = rng.gen_range(0..n);
                g.toggle_edge(a, (a + rng.gen_range(1..n)) % n).unwrap();
                false
            }
            _ => true,
        };
        let answer = agree(&t, &g, &qubits, "embedded");
        if intact {
            prop_assert!(answer);
        }
    }
}
